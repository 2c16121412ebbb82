// Command clustersim runs the paper's §9 future-work scenario: a cluster
// serving a stream of malleable applications, comparing a rigid FCFS
// scheduler against dynamic-allocation policies that use per-phase dynamic
// efficiency — the quantity the DPS simulator predicts.
//
// Usage:
//
//	clustersim [-nodes 32] [-jobs 40] [-interarrival 10] [-seed 7] [-json]
//	clustersim -scenario examples/scenarios/openload.json [-json]
//	clustersim -schedulers "rigid-fcfs,easy-backfill,malleable-hysteresis(epoch_s=45)"
//	clustersim -scenario s.json -trace-out run.trace.json -timeseries-out ts.csv
//
// Without -scenario, the classic built-in workload runs: an open Poisson
// stream of LU-profile jobs. With -scenario, the named scenario file
// supplies nodes, mix, arrival process and — when declared — the node
// availability process and reconfiguration-cost model (its first grid
// point is used; run cmd/dpssweep to cover the full grid).
//
// -schedulers overrides the compared policies with a comma-separated
// list of scheduler specs — a registered name, optionally with
// parameters as "name(key=value,...)". Valid names come from the policy
// registry (internal/sched) and are listed in the flag's help text.
//
// -appmodels overrides the scenario's application performance-model
// axis (internal/appmodel registry; "mix" = the mix's native models).
// Like the availability axis, only the first grid point runs here — run
// cmd/dpssweep to cover a multi-model grid.
//
// A scenario with a "federation" block (see docs/federation.md) switches
// the comparison from schedulers to federation policies: the fixed
// multi-cluster fleet runs once per admission × routing pair, sharing the
// open arrival stream through the federation orchestrator
// (internal/federation). -admissions and -routings override the compared
// policy lists. The table and -json report the merged fleet metrics plus
// per-pair rejected/routed job counts; observability exports carry one
// track per member cluster ("<pair>:<cluster>"), and -telemetry-addr
// additionally serves dpsim_federation_routed_jobs_total{cluster=...} and
// dpsim_federation_rejected_jobs_total.
//
// -telemetry-addr serves the runtime telemetry endpoints
// (internal/telemetry: /metrics, /progress, /healthz, /debug/pprof/)
// while the comparison runs — counters for completed runs and finished
// jobs, a run-duration histogram, and Go runtime health. The bound
// address is printed to stderr, so ":0" picks a free port. -log-json
// mirrors the run lifecycle as structured log/slog JSON records on
// stderr. See docs/telemetry.md.
//
// Observability (internal/obs): -trace-out writes a Chrome trace-event
// JSON file (load it in Perfetto or chrome://tracing; one process per
// scheduler, one track per job, capacity and queue-depth counters),
// -timeseries-out writes fixed-interval samples as CSV, and
// -summary-out writes per-run summaries (counts, charges, scheduler
// wall-clock latency) as JSON. The sample interval comes from
// -sample-dt, falling back to the scenario's observe.sample_dt_s, then
// 1s. Attaching the recorders never changes simulation results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"time"

	"dpsim/internal/appmodel"
	"dpsim/internal/cluster"
	"dpsim/internal/federation"
	"dpsim/internal/obs"
	"dpsim/internal/scenario"
	"dpsim/internal/sched"
	"dpsim/internal/sweep"
	"dpsim/internal/telemetry"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment made explicit, so the CLI smoke
// test can drive the binary's full path in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 32, "cluster nodes")
	jobs := fs.Int("jobs", 40, "jobs in the workload")
	inter := fs.Float64("interarrival", 10, "mean inter-arrival time [s]")
	seed := fs.Uint64("seed", 7, "workload seed")
	scenarioPath := fs.String("scenario", "", "scenario JSON file (overrides the workload flags)")
	schedulers := fs.String("schedulers", "",
		"comma-separated scheduler specs to compare, each NAME or NAME(k=v,...)\n"+
			"(overrides the scenario's list; valid names: "+strings.Join(sched.Names(), ", ")+")")
	appmodels := fs.String("appmodels", "",
		"comma-separated application performance-model specs, each NAME or NAME(k=v,...)\n"+
			"(overrides the scenario's list; the first entry runs here; valid names:\n"+
			"mix, "+strings.Join(appmodel.Names(), ", ")+")")
	admissionsFlag := fs.String("admissions", "",
		"comma-separated federation admission-policy specs to compare, each NAME or\n"+
			"NAME(k=v,...) (requires a federated scenario; valid names: "+
			strings.Join(federation.AdmissionNames(), ", ")+")")
	routingsFlag := fs.String("routings", "",
		"comma-separated federation routing-policy specs to compare, each NAME or\n"+
			"NAME(k=v,...) (requires a federated scenario; valid names: "+
			strings.Join(federation.RouterNames(), ", ")+")")
	jsonOut := fs.Bool("json", false, "print machine-readable JSON results")
	traceOut := fs.String("trace-out", "",
		"write a Chrome trace-event JSON file for Perfetto / chrome://tracing")
	tsOut := fs.String("timeseries-out", "",
		"write fixed-interval time-series samples as CSV")
	sumOut := fs.String("summary-out", "",
		"write per-run observability summaries as JSON")
	sampleDT := fs.Float64("sample-dt", 0,
		"time-series sample interval [s]\n(0 = the scenario's observe.sample_dt_s, else 1)")
	telemetryAddr := fs.String("telemetry-addr", "",
		"serve runtime telemetry on this address while the comparison runs:\n"+
			strings.Join(telemetry.Endpoints(), ", ")+" (\":0\" picks a free port;\n"+
			"the bound address is printed to stderr)")
	logJSON := fs.Bool("log-json", false,
		"emit structured JSON logs (log/slog) for the run lifecycle on stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: clustersim [-nodes N] [-jobs N] [-interarrival S] [-seed N] [-scenario FILE] [-schedulers LIST] [-json]\n"+
				"                  [-admissions LIST] [-routings LIST]\n"+
				"                  [-trace-out FILE] [-timeseries-out FILE] [-summary-out FILE] [-sample-dt S]\n"+
				"                  [-telemetry-addr ADDR] [-log-json]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := telemetry.NewLogger(stderr, *logJSON)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "clustersim: %v\n", err)
		logger.Error("run failed", "err", err.Error())
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "clustersim: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	var spec *scenario.Spec
	if *scenarioPath != "" {
		var err error
		spec, err = scenario.Load(*scenarioPath)
		if err != nil {
			return fail(err)
		}
	} else {
		// The classic clustersim workload, expressed as a scenario: an
		// open Poisson stream of LU-profile jobs.
		spec = &scenario.Spec{
			Name:  "clustersim",
			Nodes: []int{*nodes},
			Seed:  *seed,
			Jobs:  *jobs,
			Mix:   []scenario.MixSpec{{Kind: "lu"}},
			Arrivals: scenario.ArrivalList{
				{Process: "poisson", MeanInterarrivalS: *inter},
			},
		}
		if err := spec.Validate(); err != nil {
			return fail(err)
		}
	}
	if *schedulers != "" {
		if err := spec.ApplySchedulerOverride(*schedulers); err != nil {
			return fail(err)
		}
	}
	if *appmodels != "" {
		if err := spec.ApplyAppModelOverride(*appmodels); err != nil {
			return fail(err)
		}
	}
	if *admissionsFlag != "" {
		if err := spec.ApplyAdmissionOverride(*admissionsFlag); err != nil {
			return fail(err)
		}
	}
	if *routingsFlag != "" {
		if err := spec.ApplyRoutingOverride(*routingsFlag); err != nil {
			return fail(err)
		}
	}

	// Recorders are attached only when an observability export was
	// requested: the default path runs with no probe, the simulator's
	// zero-cost configuration.
	observing := *traceOut != "" || *tsOut != "" || *sumOut != ""
	dt, err := spec.SampleDT(*sampleDT, 1)
	if err != nil {
		fmt.Fprintf(stderr, "clustersim: -sample-dt: %v\n", err)
		fs.Usage()
		return 2
	}

	// Telemetry: simple run/job counters plus a run-duration histogram and
	// Go runtime health; clustersim has no grid, so there is no progress
	// source and /progress reports inactive.
	var runsMetric, jobsMetric *telemetry.Counter
	var runDur *telemetry.Histogram
	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		runsMetric = reg.Counter("dpsim_clustersim_runs_total",
			"Completed scheduler-comparison runs.")
		jobsMetric = reg.Counter("dpsim_clustersim_jobs_finished_total",
			"Jobs finished across all compared runs.")
		runDur = reg.Histogram("dpsim_clustersim_run_duration_seconds",
			"Wall-clock duration of one scheduler's simulation run.")
		srv, err := telemetry.NewServer(*telemetryAddr, reg, nil)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving on http://%s\n", srv.Addr())
		logger.Info("telemetry serving", "addr", srv.Addr())
	}

	if spec.Federation != nil {
		return runFederated(spec, fedEnv{
			stdout: stdout, logger: logger, fail: fail,
			jsonOut: *jsonOut, observing: observing, dt: dt,
			traceOut: *traceOut, tsOut: *tsOut, sumOut: *sumOut,
			reg: reg, runsMetric: runsMetric, jobsMetric: jobsMetric, runDur: runDur,
		})
	}

	n := spec.Nodes[0]
	load := spec.Loads[0]
	logger.Info("comparison starting", "scenario", spec.Name, "nodes", n,
		"schedulers", len(spec.Schedulers))
	var results []cluster.Result
	var recorders []*obs.Recorder
	labels := make([]string, len(spec.Schedulers))
	for i := range spec.Schedulers {
		labels[i] = spec.Schedulers[i].Label()
		params := scenario.CellParams{
			Nodes: n, Load: load, SchedulerIdx: i, ArrivalIdx: 0, AvailIdx: 0, AppModelIdx: 0,
			Seed: spec.Seed,
		}
		if observing {
			cfg := obs.Config{Label: labels[i]}
			if spec.Observe != nil {
				cfg = spec.Observe.RecorderConfig(labels[i])
			}
			rec := obs.NewRecorder(cfg)
			recorders = append(recorders, rec)
			params.Probe = rec
			params.SampleDTS = dt
		}
		// The first grid point throughout, including the first
		// availability process when the scenario declares any.
		t0 := time.Now()
		run, err := spec.RunCell(params)
		if err != nil {
			return fail(err)
		}
		if runsMetric != nil {
			runsMetric.Inc()
			jobsMetric.Add(int64(len(run.Result.PerJob)))
			runDur.Observe(time.Since(t0))
		}
		logger.Info("run finished", "scheduler", labels[i],
			"elapsed_s", time.Since(t0).Seconds(), "jobs", len(run.Result.PerJob))
		results = append(results, run.Result)
	}

	if observing {
		if err := writeObservability(*traceOut, *tsOut, *sumOut, labels, recorders); err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		// Attach the parameterized label: Result.Scheduler is the bare
		// policy name, which cannot distinguish two parameter variants
		// of one policy. SchedulerSpec round-trips through
		// sched.ParseSpec, fully identifying the cell.
		type labeledResult struct {
			SchedulerSpec string `json:"scheduler_spec"`
			cluster.Result
		}
		labeled := make([]labeledResult, len(results))
		for i, r := range results {
			labeled[i] = labeledResult{SchedulerSpec: labels[i], Result: r}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(labeled); err != nil {
			return fail(err)
		}
		return 0
	}

	availLabel := "fixed pool"
	if len(spec.Availability) > 0 {
		availLabel = spec.Availability[0].Label() + " availability"
	}
	modelLabel := "mix"
	if len(spec.AppModels) > 0 {
		modelLabel = spec.AppModels[0].Label()
	}
	fmt.Fprintf(stdout, "scenario %q: cluster of %d nodes, %s arrivals, %s, app model %s\n\n",
		spec.Name, n, spec.Arrivals[0].Label(), availLabel, modelLabel)
	width := len("scheduler")
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	fmt.Fprintf(stdout, "%-*s  %10s  %12s  %10s  %11s  %9s  %8s  %10s\n",
		width, "scheduler", "makespan", "mean resp.", "mean wait", "utilization", "mean eff.", "realloc", "lost work")
	for i, r := range results {
		fmt.Fprintf(stdout, "%-*s  %9.1fs  %11.1fs  %9.1fs  %10.1f%%  %8.1f%%  %8d  %9.1fs\n",
			width, labels[i], r.Makespan, r.MeanResponse, r.MeanWait,
			100*r.Utilization, 100*r.MeanAllocEfficiency, r.Reallocations, r.LostWorkS)
	}
	fmt.Fprintln(stdout, "\nDynamic node allocation (equipartition, efficiency-greedy) raises the")
	fmt.Fprintln(stdout, "cluster's service rate over rigid FCFS — the paper's §1/§9 motivation.")
	return 0
}

// fedEnv carries the already-resolved CLI environment into the
// federated comparison path.
type fedEnv struct {
	stdout    io.Writer
	logger    *slog.Logger
	fail      func(error) int
	jsonOut   bool
	observing bool
	dt        float64
	traceOut  string
	tsOut     string
	sumOut    string

	reg        *telemetry.Registry
	runsMetric *telemetry.Counter
	jobsMetric *telemetry.Counter
	runDur     *telemetry.Histogram
}

// runFederated compares the federated scenario's admission × routing
// policy pairs over its fixed multi-cluster fleet. Each pair is one
// orchestrated run of the shared arrival stream; the report carries the
// merged fleet result plus the pair's rejected count and per-cluster
// routed counts.
func runFederated(spec *scenario.Spec, env fedEnv) int {
	f := spec.Federation
	n := spec.Nodes[0]
	load := spec.Loads[0]
	clusters := make([]string, len(f.Clusters))
	for i := range f.Clusters {
		clusters[i] = f.Clusters[i].Name
	}
	var fedRouted []*telemetry.Counter
	var fedRejected *telemetry.Counter
	if env.reg != nil {
		for _, cn := range clusters {
			fedRouted = append(fedRouted, env.reg.Counter("dpsim_federation_routed_jobs_total",
				"Jobs the federation routing policy placed on each member cluster.",
				telemetry.L("cluster", cn)))
		}
		fedRejected = env.reg.Counter("dpsim_federation_rejected_jobs_total",
			"Jobs turned away by the federation admission policy.")
	}
	env.logger.Info("federated comparison starting", "scenario", spec.Name,
		"nodes", n, "clusters", len(clusters),
		"admissions", len(f.Admissions), "routings", len(f.Routings))

	type fedRun struct {
		Admission string `json:"admission"`
		Routing   string `json:"routing"`
		// RejectedJobs and RoutedJobs (federation.clusters order) account
		// for every offered job: rejected + sum(routed) == offered.
		RejectedJobs int   `json:"rejected_jobs"`
		RoutedJobs   []int `json:"routed_jobs"`
		cluster.Result
	}
	var runs []fedRun
	var labels []string
	var recorders []*obs.Recorder
	for ai := range f.Admissions {
		for ri := range f.Routings {
			pair := f.Admissions[ai].Label() + "/" + f.Routings[ri].Label()
			params := scenario.CellParams{
				Nodes: n, Load: load, ArrivalIdx: 0,
				AdmissionIdx: ai, RoutingIdx: ri,
				Seed: spec.Seed,
			}
			if env.observing {
				// One recorder per member cluster: the federated exports get
				// one track per "<pair>:<cluster>" instead of one per run.
				probes := make([]obs.Probe, len(clusters))
				for i, cn := range clusters {
					label := pair + ":" + cn
					cfg := obs.Config{Label: label}
					if spec.Observe != nil {
						cfg = spec.Observe.RecorderConfig(label)
					}
					rec := obs.NewRecorder(cfg)
					labels = append(labels, label)
					recorders = append(recorders, rec)
					probes[i] = rec
				}
				params.MemberProbes = probes
				params.SampleDTS = env.dt
			}
			t0 := time.Now()
			run, err := spec.RunCell(params)
			if err != nil {
				return env.fail(err)
			}
			if env.runsMetric != nil {
				env.runsMetric.Inc()
				env.jobsMetric.Add(int64(len(run.Result.PerJob)))
				env.runDur.Observe(time.Since(t0))
			}
			if fedRejected != nil {
				fedRejected.Add(int64(run.Rejected))
				for i, routed := range run.Routed {
					fedRouted[i].Add(int64(routed))
				}
			}
			env.logger.Info("run finished", "admission", f.Admissions[ai].Label(),
				"routing", f.Routings[ri].Label(), "elapsed_s", time.Since(t0).Seconds(),
				"jobs", len(run.Result.PerJob), "rejected", run.Rejected)
			runs = append(runs, fedRun{
				Admission:    f.Admissions[ai].Label(),
				Routing:      f.Routings[ri].Label(),
				RejectedJobs: run.Rejected,
				RoutedJobs:   run.Routed,
				Result:       run.Result,
			})
		}
	}

	if env.observing {
		if err := writeObservability(env.traceOut, env.tsOut, env.sumOut, labels, recorders); err != nil {
			return env.fail(err)
		}
	}

	if env.jsonOut {
		enc := json.NewEncoder(env.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(runs); err != nil {
			return env.fail(err)
		}
		return 0
	}

	fmt.Fprintf(env.stdout, "scenario %q: federated fleet of %d nodes (%s), %s arrivals\n\n",
		spec.Name, n, strings.Join(clusters, ", "), spec.Arrivals[0].Label())
	awidth, rwidth := len("admission"), len("routing")
	for _, r := range runs {
		if len(r.Admission) > awidth {
			awidth = len(r.Admission)
		}
		if len(r.Routing) > rwidth {
			rwidth = len(r.Routing)
		}
	}
	fmt.Fprintf(env.stdout, "%-*s  %-*s  %10s  %12s  %10s  %11s  %8s  %s\n",
		awidth, "admission", rwidth, "routing",
		"makespan", "mean resp.", "mean wait", "utilization", "rejected", "routed")
	for _, r := range runs {
		routed := make([]string, len(r.RoutedJobs))
		for i, c := range r.RoutedJobs {
			routed[i] = fmt.Sprintf("%s=%d", clusters[i], c)
		}
		fmt.Fprintf(env.stdout, "%-*s  %-*s  %9.1fs  %11.1fs  %9.1fs  %10.1f%%  %8d  %s\n",
			awidth, r.Admission, rwidth, r.Routing, r.Makespan, r.MeanResponse, r.MeanWait,
			100*r.Utilization, r.RejectedJobs, strings.Join(routed, " "))
	}
	fmt.Fprintln(env.stdout, "\nAdmission throttling trades rejected jobs for responsiveness; routing")
	fmt.Fprintln(env.stdout, "decides how the shared stream spreads over the heterogeneous fleet.")
	return 0
}

// writeObservability renders the recorders into the requested export
// files: one trace process, one CSV block and one summary entry per
// compared scheduler, in comparison order. Every file is written
// atomically (temp file + rename), so a failure never leaves a
// truncated export.
func writeObservability(traceOut, tsOut, sumOut string, labels []string, recorders []*obs.Recorder) error {
	if traceOut != "" {
		var tr obs.Trace
		for i, rec := range recorders {
			rec.AppendTrace(&tr, i+1)
		}
		if err := sweep.WriteFileAtomic(traceOut, tr.WriteJSON); err != nil {
			return err
		}
	}
	if tsOut != "" {
		if err := sweep.WriteFileAtomic(tsOut, func(w io.Writer) error {
			tw := obs.NewTimeSeriesWriter(w, "scheduler")
			for i, rec := range recorders {
				if err := tw.WriteAll([]string{labels[i]}, rec.Samples()); err != nil {
					return err
				}
			}
			return tw.Flush()
		}); err != nil {
			return err
		}
	}
	if sumOut != "" {
		summaries := make([]obs.Summary, len(recorders))
		for i, rec := range recorders {
			summaries[i] = rec.Summarize()
		}
		if err := sweep.WriteFileAtomic(sumOut, func(w io.Writer) error {
			return obs.WriteSummaryJSON(w, summaries)
		}); err != nil {
			return err
		}
	}
	return nil
}
