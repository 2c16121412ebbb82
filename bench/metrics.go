package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDecl declares one metric; BENCHMARK.json repeats name, unit,
// better and bound (TestMetricsMatchBenchmarkJSON keeps the two equal).
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a simulated statistic or count that repeats exactly
	// for a seed: -compare demands equality, and a change that only
	// speeds the simulator up must leave it identical.
	Exact bool `json:"exact,omitempty"`
}

// endToEnd is what a user of the CLIs waits for or pays, all host time,
// measured on the child process from outside with tracing off, in
// reference seconds (calib.go).
var endToEnd = []metricDecl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced pass. Layer names are the package names; a
// layer a workload never enters reports 0.
var perLayer = []metricDecl{
	{Name: "scenario.load_s", Unit: "s", Better: "lower"},
	{Name: "scenario.stream_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "scenario.stream_share", Unit: "share", Better: "lower"},

	{Name: "availability.generate_ns_per_run", Unit: "ns/run", Better: "lower"},
	{Name: "availability.changes_per_run", Unit: "count", Better: "lower", Exact: true},

	{Name: "sweep.plan_s", Unit: "s", Better: "lower"},
	{Name: "sweep.run_s", Unit: "s", Better: "lower"},
	{Name: "sweep.overhead_ns_per_run", Unit: "ns/run", Better: "lower"},
	{Name: "sweep.export_csv_s", Unit: "s", Better: "lower"},
	{Name: "sweep.export_json_s", Unit: "s", Better: "lower"},
	{Name: "sweep.checkpoint_overhead_s", Unit: "s", Better: "lower"},
	{Name: "sweep.checkpoint_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "cluster.new_ns_per_run", Unit: "ns/run", Better: "lower"},
	{Name: "cluster.inject_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "cluster.step_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "cluster.step_self_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "cluster.step_share", Unit: "share", Better: "lower"},
	{Name: "cluster.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.result_ns_per_run", Unit: "ns/run", Better: "lower"},
	{Name: "cluster.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "cluster.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.active_p50", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.active_max", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.reallocations_per_run", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.capacity_events_per_run", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.lost_work_s_per_run", Unit: "sim-s", Better: "lower", Exact: true},

	{Name: "sched.allocate_ns_per_invoke", Unit: "ns/invoke", Better: "lower"},
	{Name: "sched.invocations", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.share", Unit: "share", Better: "lower"},

	{Name: "federation.step_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "federation.peek_ns_per_call", Unit: "ns/call", Better: "lower"},
	{Name: "federation.offer_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "federation.admit_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "federation.route_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "federation.rejected_share", Unit: "share", Better: "lower", Exact: true},

	{Name: "eventq.push_pop_ns", Unit: "ns/op", Better: "lower"},
	{Name: "eventq.reschedule_ns", Unit: "ns/op", Better: "lower"},
	{Name: "eventq.cancel_ns", Unit: "ns/op", Better: "lower"},

	{Name: "obs.recorder_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "lu.build_ns_per_config", Unit: "ns/config", Better: "lower"},
	{Name: "core.new_ns_per_run", Unit: "ns/run", Better: "lower"},
	{Name: "core.run_testbed_s", Unit: "s", Better: "lower"},
	{Name: "core.run_sim_s", Unit: "s", Better: "lower"},
	{Name: "core.testbed_ns_per_step", Unit: "ns/step", Better: "lower"},
	{Name: "core.sim_ns_per_step", Unit: "ns/step", Better: "lower"},
	{Name: "core.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.posts", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.transfers", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.control_msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "experiments.overhead_share", Unit: "share", Better: "lower"},
	{Name: "experiments.mean_abs_pred_err_pct", Unit: "%", Better: "lower", Exact: true},

	{Name: "cmd.wall_raw_s", Unit: "s", Better: "lower"},
	{Name: "cmd.cpu_raw_s", Unit: "s", Better: "lower"},
	{Name: "cmd.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "cmd.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "cmd.parallel_efficiency", Unit: "share", Better: "higher"},
	{Name: "cmd.sim_jobs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.timer_pair_ns", Unit: "ns/op", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// environment fingerprints the machine and build a result came from;
// host times only compare between equal fingerprints.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(root string, seed uint64) environment {
	env := environment{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: childWorkers,
		GoVersion: runtime.Version(), GitCommit: "unknown", Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository; the commit is
	// then simply unknown, and git must not go looking above it.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}
