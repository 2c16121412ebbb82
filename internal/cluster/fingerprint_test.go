package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dpsim/internal/appmodel"
	"dpsim/internal/availability"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// Pool shapes of the fingerprint cases.
const (
	poolFixed    = iota
	poolVolatile // a cursorTimeline
	poolStranded // a cursorTimeline ending at capacity 0
)

// fingerprintModels are registry models with non-zero migrate_s/ckpt_s
// (AppModel's cost methods) plus one zero-cost model.
func fingerprintModels(tb testing.TB) []appmodel.AppModel {
	tb.Helper()
	var out []appmodel.AppModel
	for _, m := range []struct {
		name string
		p    appmodel.Params
	}{
		{"downey", appmodel.Params{"A": 6, "sigma": 0.5, "migrate_s": 0.4, "ckpt_s": 0.9}},
		{"synthetic", appmodel.Params{"comm": 0.02, "migrate_s": 0.25, "ckpt_s": 0.5}},
		{"amdahl", appmodel.Params{"f": 0.08}},
	} {
		model, err := appmodel.New(m.name, m.p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, model)
	}
	return out
}

// simGoldens are the fingerprints of the 40 cases of
// TestSimFingerprintGolden, recorded at the commit before the cluster.go
// split into settle/preempt/allocate/charge/reschedule stages and
// re-recorded, with no simulator change, when fingerprintResult stopped
// printing the Result means the sweep never read and when cursorTimeline
// gave each timeline one notice.
var simGoldens = [40]string{
	"a21db3a8b9446e09",
	"b52705177110abc8",
	"3396d017075ba1e6",
	"e923e9df4e70c9ca",
	"36ea516072f7ea31",
	"1d270fde8d7133ee",
	"67e68b703bc3cf4a",
	"c8e35e942603725d",
	"1fffe603e8b9d0c5",
	"801fa61d9ba32adf",
	"232dd40c0f6294bc",
	"2b4f8790bb347175",
	"ce93d3b000480096",
	"809b28dbf60a8961",
	"d87dee2fdb049244",
	"afa8543554b7bd78",
	"b987c036c0037a4e",
	"7982a88dbed3b9cd",
	"04a5ccee6c6ee152",
	"b1bce1d2cce16435",
	"fce1123a0099f507",
	"5b4cea39113729c0",
	"9e7b238e023f1f68",
	"ca6e7a6f5ce43712",
	"436cbaac4bb928d8",
	"0fcbb800c331f938",
	"6506e8b1697f460b",
	"17b64068b5ad6094",
	"7f685a8440fb740c",
	"53b0779377cbd0ec",
	"d97d57a446cd6ccf",
	"027517d05c751648",
	"3c969f406a104785",
	"acd7fced546d1446",
	"19393ea391dadabb",
	"18d87c7cca622273",
	"5ca3b9f7082564c8",
	"8115afd6dddc4867",
	"e7c4ef024108a70d",
	"dbf97d3fcd2a5578",
}

// TestSimFingerprintGolden pins the whole simulator across its drive and
// bookkeeping paths: each case cycles the registered policies over a
// fixed, a volatile (cursorTimeline, ReconfigCost{0.1, 1.5}) or a
// stranding pool (the timeline ends at capacity 0, so jobs stay
// unfinished with partial progress), jobs with or without registry
// models that price their own reconfiguration, the closed drive (NewSim
// jobs, Run) or the open one (driveOpen), and ascending or permuted job
// IDs. Result() is also read mid-run while jobs are still to arrive. The
// capacity probe stream, the event count and every Result are hashed.
func TestSimFingerprintGolden(t *testing.T) {
	const nodes = 16
	policies := sched.Names()
	models := fingerprintModels(t)
	seen := map[string]bool{}
	stranded, midRunPending := 0, 0
	for c := range simGoldens {
		src := rng.New(uint64(2000 + c))
		pool := src.Intn(3)
		withModel, open, permuted := src.Intn(2) == 1, src.Intn(2) == 1, src.Intn(2) == 1
		seen[fmt.Sprintf("pool=%d", pool)] = true
		seen[fmt.Sprintf("model=%v", withModel)] = true
		seen[fmt.Sprintf("open=%v", open)] = true
		seen[fmt.Sprintf("permuted=%v", permuted)] = true
		seen[fmt.Sprintf("pool=%d open=%v", pool, open)] = true

		var changes []availability.Change
		horizon := 40.0
		if pool != poolFixed {
			changes = cursorTimeline(src, nodes)
			horizon = changes[len(changes)-1].At
			if pool == poolStranded {
				changes[len(changes)-1].Capacity = 0
			}
		}
		jobs := cursorJobs(src, 2+src.Intn(5), horizon)
		perm := src.Perm(len(jobs))
		for i, j := range jobs {
			if permuted {
				j.ID = 3*perm[i] + 1
			}
			if withModel {
				j.Model = models[i%len(models)]
			}
		}
		lastArrival := jobs[len(jobs)-1].Arrival

		policy, err := sched.New(policies[c%len(policies)], nil)
		if err != nil {
			t.Fatal(err)
		}
		closed := jobs
		if open {
			closed = nil
		}
		sim, err := NewSim(nodes, policy, closed)
		if err != nil {
			t.Fatal(err)
		}
		if pool != poolFixed {
			if err := sim.SetCapacityChanges(changes); err != nil {
				t.Fatal(err)
			}
			if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1.5}); err != nil {
				t.Fatal(err)
			}
		}
		probe := &capStreamProbe{}
		if err := sim.SetProbe(probe); err != nil {
			t.Fatal(err)
		}
		if pool != poolStranded && c%2 == 1 {
			if err := sim.SetSampleInterval(7); err != nil {
				t.Fatal(err)
			}
		}
		observe := func(events int) {
			switch events {
			case 2, 9, 25:
				r := sim.Result()
				if sim.Now() < eventq.Time(eventq.DurationOf(lastArrival)) {
					midRunPending++
				}
				fmt.Fprintf(&probe.b, "mid %d t=%v re=%d %s\n", events, sim.Now(), r.Reallocations, fingerprintResult(r))
			}
		}
		var res Result
		if open {
			driveOpen(t, sim, jobs, observe)
			res = sim.Result()
		} else {
			for events := 1; events <= 25 && sim.ProcessNextEvent(); events++ {
				observe(events)
			}
			res = sim.Run()
		}
		if res.Unfinished > 0 {
			stranded++
		}
		fmt.Fprintf(&probe.b, "events=%d re=%d\n%s\n", sim.q.Fired(), res.Reallocations, fingerprintResult(res))
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(probe.b.String())))[:16]
		if got != simGoldens[c] {
			t.Errorf("case %d (%s, pool %d, model %v, open %v, permuted %v, %d jobs): fingerprint %q, want %q",
				c, policy.Name(), pool, withModel, open, permuted, len(jobs), got, simGoldens[c])
			if testing.Verbose() {
				t.Log(probe.b.String())
			}
		}
	}
	for pool := range 3 {
		for _, open := range []bool{false, true} {
			if k := fmt.Sprintf("pool=%d open=%v", pool, open); !seen[k] {
				t.Errorf("no case with %s", k)
			}
		}
	}
	for _, k := range []string{"model=true", "model=false", "permuted=true", "permuted=false"} {
		if !seen[k] {
			t.Errorf("no case with %s", k)
		}
	}
	if stranded == 0 {
		t.Error("no case left jobs unfinished")
	}
	if midRunPending == 0 {
		t.Error("no mid-run Result saw a job still to arrive")
	}
}
