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
// point is used; run cmd/dpssweep to cover the full grid); setting one of
// the workload flags -nodes, -jobs, -interarrival or -seed alongside it is
// a usage error, and so is -nodes or -jobs below 1 or an -interarrival
// that is not a finite number > 0.
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
// (internal/federation). A plain scenario runs as a fleet of one member,
// so both comparisons share one run loop and differ only in the report. -admissions and -routings override the compared
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
// member cluster of each compared run, one track per job, capacity and
// queue-depth counters),
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
	"math"
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
	scenarioPath := fs.String("scenario", "", "scenario JSON file (replaces the workload flags, which may not be set with it)")
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
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "clustersim: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}

	var spec *scenario.Spec
	if *scenarioPath != "" {
		// The scenario file supplies the workload; a workload flag set
		// alongside it would be silently ignored.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "jobs", "interarrival", "seed":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return usage("%s cannot be combined with -scenario: the scenario file sets the workload",
				strings.Join(ignored, ", "))
		}
		var err error
		spec, err = scenario.Load(*scenarioPath)
		if err != nil {
			return fail(err)
		}
	} else {
		// The classic clustersim workload, expressed as a scenario: an
		// open Poisson stream of LU-profile jobs. Its flags are checked
		// here, so an error names the flag rather than a scenario key.
		switch {
		case *nodes < 1:
			return usage("-nodes %d: the cluster needs at least 1 node", *nodes)
		case *jobs < 1:
			return usage("-jobs %d: the workload needs at least 1 job", *jobs)
		case !(*inter > 0) || math.IsInf(*inter, 1):
			return usage("-interarrival %v: the mean inter-arrival time must be finite and > 0", *inter)
		}
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
	}
	if err := spec.ApplyOverrides(scenario.Overrides{
		Schedulers: *schedulers, AppModels: *appmodels,
		Admissions: *admissionsFlag, Routings: *routingsFlag,
	}); err != nil {
		return fail(err)
	}

	// Recorders are attached only when an observability export was
	// requested: the default path runs with no probe, the simulator's
	// zero-cost configuration.
	observing := *traceOut != "" || *tsOut != "" || *sumOut != ""
	dt, err := spec.SampleDT(*sampleDT, 1)
	if err != nil {
		return usage("-sample-dt: %v", err)
	}

	// Telemetry: simple run/job counters plus a run-duration histogram and
	// Go runtime health, and per-member routed and rejected job counters
	// for a federated fleet; clustersim has no grid, so there is no
	// progress source and /progress reports inactive.
	f := spec.Federation
	var runsMetric, jobsMetric, fedRejected *telemetry.Counter
	var fedRouted []*telemetry.Counter
	var runDur *telemetry.Histogram
	if *telemetryAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		runsMetric = reg.Counter("dpsim_clustersim_runs_total",
			"Completed scheduler-comparison runs.")
		jobsMetric = reg.Counter("dpsim_clustersim_jobs_finished_total",
			"Jobs finished across all compared runs.")
		runDur = reg.Histogram("dpsim_clustersim_run_duration_seconds",
			"Wall-clock duration of one scheduler's simulation run.")
		if f != nil {
			for _, c := range f.Clusters {
				fedRouted = append(fedRouted, reg.Counter("dpsim_federation_routed_jobs_total",
					"Jobs the federation routing policy placed on each member cluster.",
					telemetry.L("cluster", c.Name)))
			}
			fedRejected = reg.Counter("dpsim_federation_rejected_jobs_total",
				"Jobs turned away by the federation admission policy.")
		}
		srv, err := telemetry.NewServer(*telemetryAddr, reg, nil)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving on http://%s\n", srv.Addr())
		logger.Info("telemetry serving", "addr", srv.Addr())
	}

	// The compared entries: one per scheduler of a plain scenario, one per
	// admission × routing pair (admission-major) of a federated one, each
	// at the first grid point (including the first availability process).
	// A plain cell is a one-member fleet, so both run, record and log
	// through the one loop below; only their reports differ.
	cell := scenario.CellParams{Nodes: spec.Nodes[0], Load: spec.Loads[0], Seed: spec.Seed}
	var entries []*entry
	if f == nil {
		for i := range spec.Schedulers {
			label := spec.Schedulers[i].Label()
			e := &entry{labels: []string{label}, members: []string{label}, attrs: []any{"scheduler", label}, params: cell}
			e.params.SchedulerIdx = i
			entries = append(entries, e)
		}
		logger.Info("comparison starting", "scenario", spec.Name, "nodes", cell.Nodes,
			"schedulers", len(spec.Schedulers))
	} else {
		for ai := range f.Admissions {
			for ri := range f.Routings {
				adm, rt := f.Admissions[ai].Label(), f.Routings[ri].Label()
				e := &entry{labels: []string{adm, rt}, attrs: []any{"admission", adm, "routing", rt}, params: cell}
				e.params.AdmissionIdx, e.params.RoutingIdx = ai, ri
				for _, c := range f.Clusters {
					e.members = append(e.members, adm+"/"+rt+":"+c.Name)
				}
				entries = append(entries, e)
			}
		}
		logger.Info("federated comparison starting", "scenario", spec.Name,
			"nodes", cell.Nodes, "clusters", len(f.Clusters),
			"admissions", len(f.Admissions), "routings", len(f.Routings))
	}

	var recorders []*obs.Recorder
	for _, e := range entries {
		if observing {
			// One recorder per member cluster, attached as its member probe.
			e.params.SampleDTS = dt
			for _, label := range e.members {
				cfg := obs.Config{Label: label}
				if spec.Observe != nil {
					cfg = spec.Observe.RecorderConfig(label)
				}
				rec := obs.NewRecorder(cfg)
				recorders = append(recorders, rec)
				e.params.MemberProbes = append(e.params.MemberProbes, rec)
			}
		}
		t0 := time.Now()
		run, err := spec.RunCell(e.params)
		if err != nil {
			return fail(err)
		}
		e.run = run
		if runsMetric != nil {
			runsMetric.Inc()
			jobsMetric.Add(int64(len(run.Result.PerJob)))
			runDur.Observe(time.Since(t0))
		}
		if fedRejected != nil {
			fedRejected.Add(int64(run.Rejected))
			for m, routed := range run.Routed {
				fedRouted[m].Add(int64(routed))
			}
		}
		done := []any{"elapsed_s", time.Since(t0).Seconds(), "jobs", len(run.Result.PerJob)}
		if f != nil {
			done = append(done, "rejected", run.Rejected)
		}
		logger.With(e.attrs...).Info("run finished", done...)
	}

	if observing {
		if err := writeObservability(*traceOut, *tsOut, *sumOut, recorders); err != nil {
			return fail(err)
		}
	}
	render := renderSchedulers
	if f != nil {
		render = renderPairs
	}
	if err := render(stdout, spec, entries, *jsonOut); err != nil {
		return fail(err)
	}
	return 0
}

// entry is one compared run: its policy labels (the scheduler, or the
// admission and routing pair) and their slog attributes, its grid cell,
// the recorder label of each member cluster and, once run, its outcome.
type entry struct {
	labels  []string
	attrs   []any
	params  scenario.CellParams
	members []string
	run     *scenario.CellRun
}

// renderSchedulers reports a scheduler comparison as a table, or as -json
// results labelled with their scheduler specs.
func renderSchedulers(w io.Writer, spec *scenario.Spec, entries []*entry, jsonOut bool) error {
	if jsonOut {
		// Attach the parameterized label: Result.Scheduler is the bare
		// policy name, which cannot distinguish two parameter variants
		// of one policy. SchedulerSpec round-trips through
		// sched.ParseSpec, fully identifying the cell.
		type labeledResult struct {
			SchedulerSpec string `json:"scheduler_spec"`
			cluster.Result
		}
		rows := make([]labeledResult, len(entries))
		for i, e := range entries {
			rows[i] = labeledResult{SchedulerSpec: e.labels[0], Result: e.run.Result}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	availLabel := "fixed pool"
	if len(spec.Availability) > 0 {
		availLabel = spec.Availability[0].Label() + " availability"
	}
	modelLabel := "mix"
	if len(spec.AppModels) > 0 {
		modelLabel = spec.AppModels[0].Label()
	}
	fmt.Fprintf(w, "scenario %q: cluster of %d nodes, %s arrivals, %s, app model %s\n\n",
		spec.Name, spec.Nodes[0], spec.Arrivals[0].Label(), availLabel, modelLabel)
	width := len("scheduler")
	for _, e := range entries {
		width = max(width, len(e.labels[0]))
	}
	fmt.Fprintf(w, "%-*s  %10s  %12s  %10s  %11s  %9s  %8s  %10s\n",
		width, "scheduler", "makespan", "mean resp.", "mean wait", "utilization", "mean eff.", "realloc", "lost work")
	for _, e := range entries {
		r := e.run.Result
		fmt.Fprintf(w, "%-*s  %9.1fs  %11.1fs  %9.1fs  %10.1f%%  %8.1f%%  %8d  %9.1fs\n",
			width, e.labels[0], r.Makespan, r.MeanResponse, r.MeanWait,
			100*r.Utilization, 100*r.MeanAllocEfficiency, r.Reallocations, r.LostWorkS)
	}
	fmt.Fprintln(w, "\nDynamic node allocation (equipartition, efficiency-greedy) raises the")
	fmt.Fprintln(w, "cluster's service rate over rigid FCFS — the paper's §1/§9 motivation.")
	return nil
}

// renderPairs reports a federated policy-pair comparison: the merged
// fleet result plus each pair's rejected count and per-cluster routed
// counts, as a table or as -json.
func renderPairs(w io.Writer, spec *scenario.Spec, entries []*entry, jsonOut bool) error {
	if jsonOut {
		type fedRun struct {
			Admission string `json:"admission"`
			Routing   string `json:"routing"`
			// RejectedJobs and RoutedJobs (federation.clusters order) account
			// for every offered job: rejected + sum(routed) == offered.
			RejectedJobs int   `json:"rejected_jobs"`
			RoutedJobs   []int `json:"routed_jobs"`
			cluster.Result
		}
		rows := make([]fedRun, len(entries))
		for i, e := range entries {
			rows[i] = fedRun{Admission: e.labels[0], Routing: e.labels[1],
				RejectedJobs: e.run.Rejected, RoutedJobs: e.run.Routed, Result: e.run.Result}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	clusters := make([]string, len(spec.Federation.Clusters))
	for i, c := range spec.Federation.Clusters {
		clusters[i] = c.Name
	}
	fmt.Fprintf(w, "scenario %q: federated fleet of %d nodes (%s), %s arrivals\n\n",
		spec.Name, spec.Nodes[0], strings.Join(clusters, ", "), spec.Arrivals[0].Label())
	awidth, rwidth := len("admission"), len("routing")
	for _, e := range entries {
		awidth, rwidth = max(awidth, len(e.labels[0])), max(rwidth, len(e.labels[1]))
	}
	fmt.Fprintf(w, "%-*s  %-*s  %10s  %12s  %10s  %11s  %8s  %s\n",
		awidth, "admission", rwidth, "routing",
		"makespan", "mean resp.", "mean wait", "utilization", "rejected", "routed")
	for _, e := range entries {
		routed := make([]string, len(e.run.Routed))
		for m, c := range e.run.Routed {
			routed[m] = fmt.Sprintf("%s=%d", clusters[m], c)
		}
		r := e.run.Result
		fmt.Fprintf(w, "%-*s  %-*s  %9.1fs  %11.1fs  %9.1fs  %10.1f%%  %8d  %s\n",
			awidth, e.labels[0], rwidth, e.labels[1], r.Makespan, r.MeanResponse, r.MeanWait,
			100*r.Utilization, e.run.Rejected, strings.Join(routed, " "))
	}
	fmt.Fprintln(w, "\nAdmission throttling trades rejected jobs for responsiveness; routing")
	fmt.Fprintln(w, "decides how the shared stream spreads over the heterogeneous fleet.")
	return nil
}

// writeObservability renders the recorders into the requested export
// files: one trace process, one CSV block and one summary entry per
// recorder (per member cluster of each compared run), in comparison
// order. Every file is written atomically (temp file + rename), so a
// failure never leaves a truncated export.
func writeObservability(traceOut, tsOut, sumOut string, recorders []*obs.Recorder) error {
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
			for _, rec := range recorders {
				if err := tw.WriteAll([]string{rec.Label()}, rec.Samples()); err != nil {
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
