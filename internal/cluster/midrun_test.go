package cluster

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/midrun_result.golden from the current simulator")

// midRunSteps are the event counts at which TestMidRunResultGolden reads
// Result: early, with arrivals still pending, through to the drain.
var midRunSteps = []int{3, 8, 15, 25, 40, 60, 90}

// TestMidRunResultGolden pins Result read part-way through runs on a
// volatile 8-node pool with lost-work and redistribution costs, for a
// rigid and two malleable policies. At the pinned step counts the pool
// holds jobs still to arrive, jobs waiting, jobs running and jobs
// finished, so the useful-work sum behind both utilizations reads every
// state a job can be in, the settled progress of active jobs included.
func TestMidRunResultGolden(t *testing.T) {
	const nodes = 8
	var lines []string
	mixed, lost := 0, 0
	for _, name := range []string{"rigid-fcfs", "equipartition", "efficiency-greedy"} {
		for seed := uint64(1); seed <= 3; seed++ {
			src := rng.New(300 + seed)
			jobs := arenaJobs(src, seed == 3, t)
			policy, err := sched.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSim(nodes, policy, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.SetCapacityChanges(cursorTimeline(src, nodes)); err != nil {
				t.Fatal(err)
			}
			if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1.5}); err != nil {
				t.Fatal(err)
			}
			next := 0
			for events := 1; next < len(midRunSteps) && sim.ProcessNextEvent(); events++ {
				if events != midRunSteps[next] {
					continue
				}
				next++
				pending := len(sim.jobs) - len(sim.actives) - sim.finished
				li := sim.LoadInfo()
				if pending > 0 && li.Waiting > 0 && li.Running > 0 && sim.finished > 0 {
					mixed++
				}
				r := sim.Result()
				if r.LostWorkS > 0 {
					lost++
				}
				lines = append(lines, fmt.Sprintf("%s seed=%d step=%d t=%v re=%d %s",
					name, seed, events, sim.Now(), r.Reallocations, fingerprintResult(r)))
			}
		}
	}
	if mixed == 0 {
		t.Error("no pinned step saw pending, waiting, running and finished jobs at once")
	}
	if lost == 0 {
		t.Error("no pinned step had lost work charged")
	}
	const path = "testdata/midrun_result.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the simulator produced %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("mid-run Result drifted:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
