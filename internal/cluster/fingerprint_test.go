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
// (the appmodel.Reconfigurer hook) plus one zero-cost model.
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
// split into settle/preempt/allocate/charge/reschedule stages.
var simGoldens = [40]string{
	"01628b8546053183",
	"6958eef777db87a1",
	"36e785b75782db06",
	"c41ac4f88c93b42a",
	"b1c4bb8ec64b99d9",
	"2ba0245de6ef4504",
	"f6726b8de3255a73",
	"b15dc76e377c8f5b",
	"c9c6df9453a988e3",
	"e2bb009f3d31e1b6",
	"3a3659a7da23f6a8",
	"56ed6ce3256d3fad",
	"8c7d477a1739e0f4",
	"a43e5e4728e2ad9c",
	"db99ed74af1722fb",
	"b31743e4527cca66",
	"661ca5a1d5edc853",
	"62db0bb0f5f27c42",
	"8e4776aa63aca319",
	"5f9c780048c8005e",
	"1e4d3d486bf8aef7",
	"259b4b204f755425",
	"cf523005fb0af017",
	"04ca659625f9f628",
	"b2939af0f0eeb060",
	"af5241f9cc0dcf0c",
	"474e0d06dbc0dc66",
	"208a11732e8e8f23",
	"4ef7efbf49354d17",
	"a269df09c7220424",
	"00c83ea7ff9dbad2",
	"4b7cdbee4600eafe",
	"18ffc939e746200b",
	"e47296a77fc0d02b",
	"06104fcf1489f316",
	"561cbf8c8744fce1",
	"1b80b4041e712243",
	"4e6c1c96a87d4a6b",
	"a65b4431276b331e",
	"b487e25cc8c14fea",
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
