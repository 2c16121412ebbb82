package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one named set of inputs. Sizes are constants, not flags:
// later changes are compared on exactly these inputs.
type workload struct {
	name string
	why  string
	// file is the scenario under bench/workloads ("" for paper-lu, whose
	// inputs are the paper's own).
	file string
	// reps is the replication count R of one CLI invocation; jobsPerRun
	// the scenario's "jobs"; runs the simulated replications (cells × R,
	// or core engine runs) one invocation performs — an "op" each.
	reps, jobsPerRun, runs int
	// checkpoint adds -checkpoint <fresh file> to the CLI invocation;
	// sweepLayer marks the workloads whose traced pass also times the
	// sweep layer alone (an in-process grid, too slow to repeat elsewhere).
	checkpoint, sweepLayer bool
}

// The issue sized one invocation at 6–10 s for five repetitions. The
// driver instead measures 114 runs of ≤60 s inside a 57-minute cap, so
// every size is cut by one factor of 4 (R/4; big-active, which has
// R=1, halves its jobs, which quarters its cost; paper-lu drops from 3
// testbed seeds to 1, the smallest it has) and one invocation takes
// 1.4–3 s: more repetitions per run, same layers stressed.
var workloads = []*workload{
	{
		name: "sweep-open",
		why:  "21.6k-run grid cut to 5.4k short runs of <=40 active jobs: stream generation, NewSim, sweep dispatch/fold and export dominate; event step is cheap",
		file: "sweep-open.json", reps: 25, jobsPerRun: 40, runs: 216 * 25, sweepLayer: true,
	},
	{
		name: "sweep-volatile",
		why:  "capacity events, notices, preemption and lost-work charges in cluster, plus a checkpoint rewritten every 256 runs in sweep",
		file: "sweep-volatile.json", reps: 10, jobsPerRun: 150, runs: 40 * 10, checkpoint: true, sweepLayer: true,
	},
	{
		name: "big-active",
		why:  "8 runs with thousands of active jobs: the O(active) settle + sched.State rebuild + policy pass is nearly all of the time; scenario and sweep idle",
		file: "big-active.json", reps: 1, jobsPerRun: 2500, runs: 8,
	},
	{
		name: "fed-fleet",
		why:  "the only workload entering federation: 32-member scan per event, admission, routing, idle members' capacity suspend/resume",
		file: "fed-fleet.json", reps: 4, jobsPerRun: 1200, runs: 18 * 4,
	},
	{
		name: "paper-lu",
		why:  "the paper's own DPS simulator (core, dps, lu, netmodel, cpumodel, testbed): fig10 LU configs, fresh eventq push/pop, no cluster layer",
		runs: paperConfigs * 2,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeScenario copies the committed scenario with "seed" set from
// -seed into dir and returns the copy's path: the seed is the only thing
// that varies between benchmark inputs.
func (w *workload) writeScenario(root, dir string, seed uint64) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "bench", "workloads", w.file))
	if err != nil {
		return "", err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("%s: %w", w.file, err)
	}
	doc["seed"] = json.RawMessage(fmt.Sprint(seed))
	out, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.file)
	return path, os.WriteFile(path, out, 0o644)
}
