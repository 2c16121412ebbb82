// Command dpssweep runs the paper's §9 cluster scenario — a cluster, or
// a federation of clusters, serving a stream of malleable applications —
// over a declarative scenario file. It expands the file into an
// experiment grid (arrival process × availability process × cluster
// size × offered load × scheduler × application model, or admission ×
// routing for a federated scenario) and runs every cell with seed
// replications across a parallel worker pool.
//
// Usage:
//
//	dpssweep -scenario examples/scenarios/openload.json [-replications 20]
//	         [-workers N] [-csv out.csv] [-json out.json]
//	         [-schedulers "equipartition,malleable-hysteresis(epoch_s=45)"]
//	         [-appmodels "mix,amdahl(f=0.1),roofline(sat=8)"]
//	         [-admissions "always,token-bucket(rate=0.5)"] [-routings "round-robin,least-loaded"]
//	         [-cell HASH-PREFIX]
//	         [-timeseries-out ts.csv] [-trace-out run.trace.json] [-summary-out summary.json] [-sample-dt 5]
//	         [-checkpoint ck.json] [-checkpoint-every N]
//	         [-shard i/n | -merge "a.json,b.json"]
//	         [-telemetry-addr 127.0.0.1:9100] [-log-json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The aggregate table always prints to stdout (-q suppresses it and the
// progress line); -csv and -json additionally export machine-readable
// results ("-" writes to stdout instead of a file). Identical scenarios
// and seeds produce identical exports regardless of the worker count.
// examples/scenarios/classic.json is the classic workload: an open
// Poisson stream of 40 LU jobs on 32 nodes under every scheduler.
//
// The table's first column, cell, is the first 12 hex digits of the
// cell's content hash. -cell HASH-PREFIX runs only the cells carrying
// that hash, with the full grid's seeds, so each of its rows equals the
// full grid's row byte for byte: a row of any sweep can be replayed with
// the observability exporters on. A prefix that matches no hash or
// several is a usage error.
//
// Observability (internal/obs): -timeseries-out writes fixed-interval
// samples as CSV — the grid-identity columns (arrival, availability,
// nodes, load, scheduler, appmodel, admission, routing, rep) followed by
// the sample columns, one series per member cluster of each
// replication, a federation member's reading "federated:<cluster>" in
// the scheduler column. -trace-out writes a Chrome trace-event JSON file
// (Perfetto, chrome://tracing) with one process per member cluster of
// each replication, one track per job and capacity and queue-depth
// counters; -summary-out writes one run summary (counts, charges,
// scheduler wall-clock latency) per member cluster of each replication.
// Processes and summaries are labelled by policy, cell and replication
// ("equipartition f2a1465f7015 rep 0", or "always/least-loaded:stable …"
// for a federation member). -sample-dt sets the sample interval, falling
// back to the scenario's observe.sample_dt_s, then 1s. Every observed
// file is byte-identical for any -workers value, and observing never
// changes the aggregate exports.
//
// -checkpoint makes the sweep resumable: per-cell aggregate state is
// restored from the file on start (cells keyed by content hash, so a
// resume survives scenario edits — only new or edited cells re-run),
// rewritten atomically during the sweep, and written on completion,
// error or interrupt. SIGINT stops dispatching, drains in-flight runs,
// writes the final checkpoint and exits 130; re-running the identical
// command resumes and produces byte-identical exports. -checkpoint is
// rejected alongside the observability exports: checkpoint-restored
// replications are not re-observed, so a resumed sweep would write
// incomplete files. See docs/sweep.md.
//
// -shard i/n runs only the cells that content-hash into shard i of n
// into its -checkpoint (required; the report exports are not): the
// completed checkpoint is the shard's artifact, and rerunning a killed
// shard resumes it. n processes — on one machine or many — each run one
// shard, and -merge combines their checkpoints into the full report,
// byte-identical to a single-process run.
//
// -telemetry-addr serves the runtime telemetry endpoints
// (internal/telemetry: /metrics, /progress, /healthz, /debug/pprof/)
// while the sweep runs; the bound address is printed to stderr, so ":0"
// picks a free port (see docs/telemetry.md). -log-json mirrors the run's
// lifecycle as structured log/slog JSON records on stderr. -cpuprofile
// and -memprofile write pprof profiles of the sweep. All file exports
// are written atomically (temp file + rename), so a killed or failed
// sweep never leaves a truncated export behind.
//
// -schedulers, -appmodels, -admissions and -routings override the
// scenario's policy axes with comma-separated specs — a registered name,
// optionally parameterized as "name(key=value,...)" ("mix" keeps each
// mix component's native model; the last two need a federated scenario,
// see docs/federation.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dpsim/internal/appmodel"
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
// tests can drive the binary's full path — telemetry server included —
// in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpssweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "scenario JSON file (required)")
	replications := fs.Int("replications", 1, "seed replications per grid cell")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	schedulers := fs.String("schedulers", "",
		"comma-separated scheduler specs forming the grid axis, each NAME or NAME(k=v,...)\n"+
			"(overrides the scenario's list; valid names: "+strings.Join(sched.Names(), ", ")+")")
	appmodels := fs.String("appmodels", "",
		"comma-separated application performance-model specs forming the grid axis,\n"+
			"each NAME or NAME(k=v,...) (overrides the scenario's list; valid names:\n"+
			"mix, "+strings.Join(appmodel.Names(), ", ")+")")
	admissionsFlag := fs.String("admissions", "",
		"comma-separated federation admission-policy specs forming the grid axis,\n"+
			"each NAME or NAME(k=v,...) (requires a federated scenario; valid names: "+
			strings.Join(federation.AdmissionNames(), ", ")+")")
	routingsFlag := fs.String("routings", "",
		"comma-separated federation routing-policy specs forming the grid axis,\n"+
			"each NAME or NAME(k=v,...) (requires a federated scenario; valid names: "+
			strings.Join(federation.RouterNames(), ", ")+")")
	csvPath := fs.String("csv", "", "write aggregate CSV to this file (\"-\" for stdout)")
	jsonPath := fs.String("json", "", "write aggregate JSON to this file (\"-\" for stdout)")
	cellPrefix := fs.String("cell", "",
		"run only the cells whose content hash starts with this hex prefix (the table's cell column)")
	tsPath := fs.String("timeseries-out", "",
		"write each observed run's fixed-interval time-series samples as CSV")
	tracePath := fs.String("trace-out", "",
		"write a Chrome trace-event JSON file of every run for Perfetto / chrome://tracing")
	sumPath := fs.String("summary-out", "",
		"write a JSON summary of every run")
	sampleDT := fs.Float64("sample-dt", 0,
		"time-series sample interval [s] (0 = the scenario's observe.sample_dt_s, else 1)")
	checkpointPath := fs.String("checkpoint", "",
		"resumable fold checkpoint file: restored on start, rewritten during the sweep,\n"+
			"written on completion, error or interrupt (SIGINT exits 130 after checkpointing)")
	checkpointEvery := fs.Int("checkpoint-every", 0,
		"checkpoint cadence in executed runs (0 = default "+fmt.Sprint(sweep.DefaultCheckpointEvery)+")")
	shardSpec := fs.String("shard", "",
		"run only shard i/n of the grid (content-hash partition) into -checkpoint,\n"+
			"the shard's artifact, instead of writing report exports")
	mergeList := fs.String("merge", "",
		"merge comma-separated completed shard checkpoints into the full report instead\n"+
			"of running (requires the -scenario the shards ran)")
	telemetryAddr := fs.String("telemetry-addr", "",
		"serve runtime telemetry on this address while the sweep runs:\n"+
			strings.Join(telemetry.Endpoints(), ", ")+" (\":0\" picks a free port;\n"+
			"the bound address is printed to stderr)")
	logJSON := fs.Bool("log-json", false,
		"emit structured JSON logs (log/slog) for the run lifecycle on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (captured after the sweep) to this file")
	quiet := fs.Bool("q", false, "suppress the progress line and table")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: dpssweep -scenario FILE [-replications N] [-workers N] [-schedulers LIST] [-appmodels LIST]\n"+
				"                [-admissions LIST] [-routings LIST]\n"+
				"                [-csv FILE] [-json FILE] [-cell PREFIX]\n"+
				"                [-timeseries-out FILE] [-trace-out FILE] [-summary-out FILE] [-sample-dt S]\n"+
				"                [-checkpoint FILE] [-checkpoint-every N] [-shard I/N | -merge FILES]\n"+
				"                [-telemetry-addr ADDR] [-log-json] [-cpuprofile FILE] [-memprofile FILE]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := telemetry.NewLogger(stderr, *logJSON)
	fail := func(context string, err error) int {
		if context != "" {
			fmt.Fprintf(stderr, "dpssweep: %s: %v\n", context, err)
		} else {
			fmt.Fprintf(stderr, "dpssweep: %v\n", err)
		}
		logger.Error("sweep failed", "context", context, "err", err.Error())
		return 1
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dpssweep: "+format+"\n", args...)
		return 2
	}
	if fs.NArg() > 0 {
		usage("unexpected arguments: %v", fs.Args())
		fs.Usage()
		return 2
	}
	if *scenarioPath == "" {
		usage("-scenario is required")
		fs.Usage()
		return 2
	}
	if *replications <= 0 {
		return usage("-replications must be positive")
	}
	if dt := *sampleDT; dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		usage("-sample-dt must be a finite number of seconds >= 0, got %g", dt)
		fs.Usage()
		return 2
	}
	observing := *tsPath != "" || *tracePath != "" || *sumPath != ""
	switch {
	case *shardSpec != "" && *mergeList != "":
		return usage("-shard and -merge are mutually exclusive")
	case *cellPrefix != "" && (*shardSpec != "" || *mergeList != ""):
		return usage("-cell replays cells of the whole grid; -shard/-merge do not apply")
	case *shardSpec != "" && (*checkpointPath == "" || *csvPath != "" || *jsonPath != "" || observing):
		return usage("-shard requires -checkpoint FILE, the shard's artifact; the report and observability exports belong to the merged report")
	case *mergeList != "" && (observing || *checkpointPath != ""):
		return usage("-merge combines completed shard checkpoints; the observability exports and -checkpoint do not apply")
	case *checkpointPath != "" && observing:
		return usage("-checkpoint cannot be combined with -timeseries-out, -trace-out or -summary-out: checkpoint-restored replications are not re-observed, so a resumed sweep would write incomplete exports")
	}

	spec, err := scenario.Load(*scenarioPath)
	if err != nil {
		return fail("", err)
	}
	if err := spec.ApplyOverrides(scenario.Overrides{
		Schedulers: *schedulers, AppModels: *appmodels,
		Admissions: *admissionsFlag, Routings: *routingsFlag,
	}); err != nil {
		return fail("", err)
	}
	cells, _, err := sweep.CellsMatching(spec, *cellPrefix)
	if err != nil {
		return usage("-cell: %v", err)
	}
	// writeReports renders the aggregate table and the -csv/-json exports;
	// shared by the run and merge paths.
	writeReports := func(stats []sweep.CellStats) int {
		if !*quiet {
			printTable(stdout, stats)
		}
		for _, x := range []struct {
			kind, path string
			write      func(io.Writer, string, []sweep.CellStats) error
		}{{"csv", *csvPath, sweep.WriteCSV}, {"json", *jsonPath, sweep.WriteJSON}} {
			if err := export(x.path, stdout, func(w io.Writer) error {
				return x.write(w, spec.Name, stats)
			}); err != nil {
				return fail(x.kind, err)
			}
			if x.path != "" && x.path != "-" {
				logger.Info("export written", "kind", x.kind, "path", x.path)
			}
		}
		return 0
	}

	// Merge mode: no simulation — combine shard checkpoints into the full
	// grid report (byte-identical to a single-process run).
	if *mergeList != "" {
		paths := strings.Split(*mergeList, ",")
		stats, reps, err := sweep.MergeShards(spec, paths)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "replications" && err == nil && *replications != reps {
				err = fmt.Errorf("-replications %d, but the shard checkpoints folded %d replications", *replications, reps)
			}
		})
		if err != nil {
			return fail("merge", err)
		}
		logger.Info("shards merged", "artifacts", len(paths), "cells", len(stats), "replications", reps)
		return writeReports(stats)
	}

	opt := sweep.Options{
		Replications:    *replications,
		Workers:         *workers,
		Checkpoint:      *checkpointPath,
		CheckpointEvery: *checkpointEvery,
		Cell:            *cellPrefix,
	}
	if *shardSpec != "" {
		sel, err := sweep.ParseShard(*shardSpec)
		if err != nil {
			return usage("%v", err)
		}
		opt.Shard = sel
	}
	// SIGINT stops the sweep gracefully: dispatching halts, in-flight
	// runs drain, the final checkpoint is written, and dpssweep exits
	// 130. A second SIGINT falls back to the default hard kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	opt.Interrupted = func() bool {
		select {
		case <-sigc:
			signal.Stop(sigc)
			return true
		default:
			return false
		}
	}
	poolSize := opt.Workers
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}

	// Runtime telemetry: metrics registry + HTTP server for the duration
	// of the sweep. The sweep itself reports through opt.Metrics; Go
	// runtime health rides along via scrape-time gauges.
	if *telemetryAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		m := sweep.NewMetrics(reg, poolSize)
		srv, err := telemetry.NewServer(*telemetryAddr, reg, m)
		if err != nil {
			return fail("telemetry", err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving on http://%s\n", srv.Addr())
		logger.Info("telemetry serving", "addr", srv.Addr())
		opt.Metrics = m
	}

	// Observation: each member cluster of each replication gets its own
	// recorder, and the exporters drain them at the in-order fold
	// frontier, so every file is byte-identical for any -workers value.
	// Aggregate exports are untouched — probes observe, they never
	// participate. The time series streams into a temp file that is only
	// renamed onto -timeseries-out after a clean finish; the trace and the
	// summaries are written atomically at the end.
	var tsFile *sweep.AtomicFile
	var tsSink *sweep.TimeSeriesSink
	var trace obs.Trace
	var summaries []obs.Summary
	if observing {
		if *tsPath != "" {
			f, err := sweep.CreateAtomic(*tsPath)
			if err != nil {
				return fail("timeseries", err)
			}
			defer f.Abort()
			tsFile = f
			tsSink = sweep.NewTimeSeriesSink(f)
		}
		// Resolve the sample interval once, into the observe block every
		// observed run reads: the flag, else sample_dt_s, else 1s.
		dt := *sampleDT
		if dt == 0 {
			dt = spec.SampleDT(1)
		}
		if spec.Observe == nil {
			spec.Observe = &scenario.ObserveSpec{}
		}
		spec.Observe.SampleDTS = dt
		opt.Observe = func(o sweep.Observation) obs.Probe {
			return obs.NewRecorder(spec.Observe.RecorderConfig(o.Label()))
		}
		pid := 0
		opt.OnObserved = func(o sweep.Observation, p obs.Probe) {
			if tsSink != nil {
				tsSink.OnObserved(o, p)
			}
			rec := p.(*obs.Recorder)
			pid++
			if *tracePath != "" {
				rec.AppendTrace(&trace, pid)
			}
			if *sumPath != "" {
				summaries = append(summaries, rec.Summarize())
			}
		}
	}
	start := time.Now()
	logger.Info("sweep starting", "scenario", spec.Name, "cells", len(cells),
		"replications", *replications, "workers", poolSize)
	// runs counts the runs this process executes — the plan's owed runs,
	// net of dedup, resume and other shards — as Progress reports them.
	runs := 0
	opt.Progress = func(done, total int) {
		runs = total
		if *quiet {
			return
		}
		// The progress line shows live throughput and an ETA extrapolated
		// from it (the same numbers /progress serves).
		elapsed := time.Since(start).Seconds()
		var rate float64
		if elapsed > 0 {
			rate = float64(done) / elapsed
		}
		eta := "--"
		if rate > 0 {
			eta = (time.Duration(float64(total-done) / rate * float64(time.Second))).Round(time.Second).String()
		}
		fmt.Fprintf(stdout, "\r%d/%d runs  %.1f runs/s  ETA %s ", done, total, rate, eta)
		if done == total {
			fmt.Fprintln(stdout)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile", err)
		}
		defer f.Close()
	}
	var stats []sweep.CellStats
	var units int
	if *shardSpec != "" {
		units, err = sweep.RunShard(spec, opt)
	} else {
		stats, err = sweep.Run(spec, opt)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		if errors.Is(err, sweep.ErrInterrupted) {
			msg := "interrupted"
			if *checkpointPath != "" {
				msg += "; checkpoint written to " + *checkpointPath + " (rerun the same command to resume)"
			}
			fmt.Fprintf(stderr, "dpssweep: %s\n", msg)
			logger.Error("sweep interrupted", "checkpoint", *checkpointPath)
			return 130
		}
		return fail("", err)
	}
	elapsed := time.Since(start)
	if !*quiet {
		fmt.Fprintf(stdout, "scenario %q: %d cells × %d replications, %d runs executed on %d workers\n",
			spec.Name, len(cells), *replications, runs, poolSize)
	}
	logger.Info("sweep finished", "runs", runs,
		"elapsed_s", elapsed.Seconds(),
		"runs_per_second", float64(runs)/elapsed.Seconds())
	if tsSink != nil {
		ferr := tsSink.Flush()
		if ferr == nil {
			ferr = tsFile.Commit()
		}
		if ferr != nil {
			return fail("timeseries", ferr)
		}
		logger.Info("export written", "kind", "timeseries", "path", *tsPath)
	}
	for _, x := range []struct {
		kind, path string
		write      func(io.Writer) error
	}{
		{"trace", *tracePath, trace.WriteJSON},
		{"summary", *sumPath, func(w io.Writer) error { return obs.WriteSummaryJSON(w, summaries) }},
	} {
		if x.path == "" {
			continue
		}
		if err := sweep.WriteFileAtomic(x.path, x.write); err != nil {
			return fail(x.kind, err)
		}
		logger.Info("export written", "kind", x.kind, "path", x.path)
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr == nil {
			runtime.GC() // settle the heap so the profile shows retained memory
			ferr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			return fail("memprofile", ferr)
		}
	}

	if *shardSpec != "" {
		logger.Info("export written", "kind", "shard", "path", *checkpointPath)
		if !*quiet {
			fmt.Fprintf(stdout, "shard %d/%d: %d unique cells -> %s\n",
				opt.Shard.Index, opt.Shard.Count, units, *checkpointPath)
		}
		return 0
	}
	return writeReports(stats)
}

func printTable(stdout io.Writer, stats []sweep.CellStats) {
	width := len("scheduler")
	mwidth := len("appmodel")
	awidth, rwidth := len("admission"), len("routing")
	federated := false
	for _, st := range stats {
		if len(st.Scheduler) > width {
			width = len(st.Scheduler)
		}
		if len(st.AppModel) > mwidth {
			mwidth = len(st.AppModel)
		}
		if len(st.Admission) > awidth {
			awidth = len(st.Admission)
		}
		if len(st.Routing) > rwidth {
			rwidth = len(st.Routing)
		}
		if st.Admission != "none" || st.Routing != "none" {
			federated = true
		}
	}
	// The admission/routing columns only exist for federated grids —
	// legacy sweeps keep their historical table layout.
	policy := func(st sweep.CellStats) string {
		if !federated {
			return ""
		}
		return fmt.Sprintf(" %-*s %-*s", awidth, st.Admission, rwidth, st.Routing)
	}
	policyHeader := ""
	if federated {
		policyHeader = fmt.Sprintf(" %-*s %-*s", awidth, "admission", rwidth, "routing")
	}
	fmt.Fprintf(stdout, "\n%-12s %-16s %-16s %6s %5s %-*s %-*s%s %10s %10s %9s %10s %8s %8s %8s %8s %9s %9s\n",
		"cell", "arrival", "availability", "nodes", "load", width, "scheduler", mwidth, "appmodel", policyHeader,
		"mean resp", "p95 resp", "wait", "makespan", "util", "avutil", "slowdn", "realloc", "lost work", "redist")
	for _, st := range stats {
		fmt.Fprintf(stdout, "%-12s %-16s %-16s %6d %5.2g %-*s %-*s%s %9.1fs %9.1fs %8.1fs %9.1fs %7.1f%% %7.1f%% %8.2f %8.1f %8.1fs %8.1fs\n",
			st.Hash.Short(), st.Arrival, st.Avail, st.Nodes, st.Load, width, st.Scheduler, mwidth, st.AppModel, policy(st),
			st.MeanResponse, st.P95Response, st.MeanWait,
			st.MeanMakespan, 100*st.MeanUtilization, 100*st.MeanAvailUtilization,
			st.MeanSlowdown, st.MeanReallocations, st.MeanLostWork, st.MeanRedistribution)
	}
}

// export renders write's output to path: "" skips, "-" streams to
// stdout, and a real path is written atomically (temp file + rename) so
// a failure never leaves a truncated export.
func export(path string, stdout io.Writer, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stdout)
	}
	return sweep.WriteFileAtomic(path, write)
}
