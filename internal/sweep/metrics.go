package sweep

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpsim/internal/telemetry"
)

// Metrics instruments a sweep's worker pool on a telemetry.Registry.
// Attach one via Options.Metrics and serve the registry with
// telemetry.NewServer — Metrics is also the telemetry.ProgressSource
// behind the /progress endpoint.
//
// Cost contract: with Options.Metrics nil (the default), Run executes
// exactly the uninstrumented path — one nil check per run, zero
// allocations, zero atomics. With Metrics attached, each *run* (not each
// simulated event) costs a handful of atomic operations, so the
// per-event hot path pinned by the PR 4 zero-alloc tests is untouched
// either way.
//
// Determinism contract: the families named by DeterministicMetricNames
// reach worker-count-independent final values — byte-identical
// Prometheus text for any Options.Workers — because they count only
// simulation-derived facts folded with commutative atomic adds.
// Wall-clock families (busy time, durations, rates) are excluded.
type Metrics struct {
	reg *telemetry.Registry

	runsStarted    *telemetry.Counter
	runsFinished   *telemetry.Counter
	runsErrored    *telemetry.Counter
	jobsFinished   *telemetry.Counter
	jobsUnfinished *telemetry.Counter

	cellsTotal   *telemetry.Gauge
	cellsDone    *telemetry.Gauge
	cellsDeduped *telemetry.Gauge
	cellsResumed *telemetry.Gauge
	replications *telemetry.Gauge
	runsTotal    *telemetry.Gauge
	workersG     *telemetry.Gauge
	foldFrontier *telemetry.Gauge
	foldLag      *telemetry.Gauge

	runDur *telemetry.Histogram

	startNS atomic.Int64 // wall-clock run start (unix ns); 0 = not begun

	// workerSeq hands each pool goroutine its worker index. Run's workers
	// self-number through it instead of receiving the index as a goroutine
	// argument — passing arguments to a `go` statement heap-allocates the
	// argument record, which would cost the metrics-disabled path an
	// allocation per worker.
	workerSeq atomic.Int64

	mu         sync.Mutex
	workerBusy []*telemetry.Counter // per-worker busy nanoseconds
}

// NewMetrics registers the sweep metric families on reg and returns the
// instrument set. workersHint pre-registers that many per-worker busy
// counters so scrapes taken before Run begins already expose the full
// schema; Run itself registers any workers beyond the hint (<= 0 skips
// pre-registration).
func NewMetrics(reg *telemetry.Registry, workersHint int) *Metrics {
	m := &Metrics{
		reg: reg,
		runsStarted: reg.Counter("dpsim_sweep_runs_started_total",
			"Replications handed to a worker."),
		runsFinished: reg.Counter("dpsim_sweep_runs_finished_total",
			"Replications that completed successfully."),
		runsErrored: reg.Counter("dpsim_sweep_runs_errored_total",
			"Replications that failed with an error."),
		jobsFinished: reg.Counter("dpsim_sweep_jobs_finished_total",
			"Simulated jobs completed, summed over finished runs."),
		jobsUnfinished: reg.Counter("dpsim_sweep_jobs_unfinished_total",
			"Simulated jobs that arrived but never completed, summed over finished runs."),
		cellsTotal: reg.Gauge("dpsim_sweep_cells_total",
			"Grid cells in the sweep."),
		cellsDone: reg.Gauge("dpsim_sweep_cells_done",
			"Grid cells whose every replication has folded into aggregates."),
		cellsDeduped: reg.Gauge("dpsim_sweep_cells_deduped",
			"Grid cells skipped because an identical cell executes for them (content-hash dedup)."),
		cellsResumed: reg.Gauge("dpsim_sweep_cells_resumed",
			"Grid cells restored, fully or partially, from the fold checkpoint."),
		replications: reg.Gauge("dpsim_sweep_replications",
			"Replications per grid cell."),
		runsTotal: reg.Gauge("dpsim_sweep_runs_total",
			"Replications this process executes (after dedup, resume and shard planning)."),
		workersG: reg.Gauge("dpsim_sweep_workers",
			"Workers in the pool."),
		foldFrontier: reg.Gauge("dpsim_sweep_fold_frontier",
			"Grid (cell, replication) slots settled: folded in order into the unit the cell displays, restored, or another shard's."),
		foldLag: reg.Gauge("dpsim_sweep_fold_lag",
			"Grid slots of completed runs parked ahead of the fold frontier."),
		runDur: reg.Histogram("dpsim_sweep_run_duration_seconds",
			"Wall-clock duration of one replication."),
	}
	reg.GaugeFunc("dpsim_sweep_runs_per_second",
		"Completed runs per wall-clock second since the sweep began.",
		func() float64 { return m.Progress().RunsPerSecond })
	reg.GaugeFunc("dpsim_sweep_cells_per_second",
		"Fully folded cells per wall-clock second since the sweep began.",
		func() float64 { return m.Progress().CellsPerSecond })
	reg.GaugeFunc("dpsim_sweep_eta_seconds",
		"Estimated wall-clock seconds until the sweep completes.",
		func() float64 { return m.Progress().ETAS })
	m.ensureWorkers(workersHint)
	return m
}

// DeterministicMetricNames lists the families whose final values are
// byte-identical across worker counts (see the Metrics determinism
// contract; pinned by TestMetricsDeterministicAcrossWorkers).
func (m *Metrics) DeterministicMetricNames() []string {
	return []string{
		"dpsim_sweep_runs_started_total",
		"dpsim_sweep_runs_finished_total",
		"dpsim_sweep_runs_errored_total",
		"dpsim_sweep_jobs_finished_total",
		"dpsim_sweep_jobs_unfinished_total",
		"dpsim_sweep_cells_total",
		"dpsim_sweep_cells_done",
		"dpsim_sweep_cells_deduped",
		"dpsim_sweep_cells_resumed",
		"dpsim_sweep_replications",
		"dpsim_sweep_runs_total",
		"dpsim_sweep_fold_frontier",
		"dpsim_sweep_fold_lag",
	}
}

// ensureWorkers registers per-worker busy counters and busy-fraction
// gauges for workers [0, n). Registration is idempotent.
func (m *Metrics) ensureWorkers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for w := len(m.workerBusy); w < n; w++ {
		label := telemetry.L("worker", strconv.Itoa(w))
		busy := m.reg.Counter("dpsim_sweep_worker_busy_ns_total",
			"Wall-clock nanoseconds worker spent running replications.", label)
		m.workerBusy = append(m.workerBusy, busy)
		m.reg.GaugeFunc("dpsim_sweep_worker_busy_fraction",
			"Fraction of elapsed wall clock the worker spent running replications.",
			func() float64 {
				start := m.startNS.Load()
				if start == 0 {
					return 0
				}
				elapsed := time.Now().UnixNano() - start
				if elapsed <= 0 {
					return 0
				}
				f := float64(busy.Value()) / float64(elapsed)
				if f > 1 {
					f = 1
				}
				return f
			}, label)
	}
}

// begin publishes the plan — grid size, owed runs, the dedup and resume
// outcome, and the fold position that sharding and restore start it
// from — then sizes the worker pool and starts the wall clock. Called by
// runGrid before any worker starts.
func (m *Metrics) begin(p *plan, workers int) {
	m.cellsTotal.Set(float64(len(p.cells)))
	m.replications.Set(float64(p.reps))
	m.runsTotal.Set(float64(len(p.runs)))
	m.cellsDeduped.Set(float64(p.deduped))
	m.cellsResumed.Set(float64(p.resumed))
	m.noteFold(p.settled, 0, p.cellsDone)
	m.workersG.Set(float64(workers))
	m.ensureWorkers(workers)
	m.workerSeq.Store(0)
	m.startNS.Store(time.Now().UnixNano())
}

// claimWorker returns the next free worker index; each pool goroutine
// calls it once when metrics are attached.
func (m *Metrics) claimWorker() int {
	return int(m.workerSeq.Add(1)) - 1
}

// noteRun records one replication's outcome: the worker's busy time, the
// run-duration histogram, and the outcome counters. jobs/unfinished are
// only counted for successful runs. Allocation- and lock-free: begin
// registered every worker's counter before the pool started, and the
// slice is never mutated while a sweep runs (one Metrics must not be
// shared by concurrent Run calls).
func (m *Metrics) noteRun(worker int, elapsed time.Duration, jobs, unfinished int, errored bool) {
	m.workerBusy[worker].Add(int64(elapsed))
	m.runDur.Observe(elapsed)
	if errored {
		m.runsErrored.Inc()
		return
	}
	m.runsFinished.Inc()
	m.jobsFinished.Add(int64(jobs))
	m.jobsUnfinished.Add(int64(unfinished))
}

// noteFold publishes the plan's fold position: the grid slots settled so
// far, the slots of completed runs parked ahead of the frontier, and the
// cells with nothing left to fold (plan.settled, plan.cellsDone — every
// count weighs a unit's run by the cells displaying it). Called under
// the sweep's fold lock.
func (m *Metrics) noteFold(settled, parked, cellsDone int) {
	m.foldFrontier.Set(float64(settled))
	m.foldLag.Set(float64(parked))
	m.cellsDone.Set(float64(cellsDone))
}

// Progress implements telemetry.ProgressSource for the /progress
// endpoint. Safe to call concurrently with a running sweep.
func (m *Metrics) Progress() telemetry.ProgressInfo {
	info := telemetry.ProgressInfo{
		CellsTotal:   int(m.cellsTotal.Value()),
		CellsDone:    int(m.cellsDone.Value()),
		Replications: int(m.replications.Value()),
		RunsTotal:    int(m.runsTotal.Value()),
		RunsErrored:  int(m.runsErrored.Value()),
		FoldFrontier: int(m.foldFrontier.Value()),
		FoldLag:      int(m.foldLag.Value()),
	}
	info.RunsDone = int(m.runsFinished.Value() + m.runsErrored.Value())
	start := m.startNS.Load()
	if start == 0 {
		return info
	}
	info.Active = true
	elapsed := float64(time.Now().UnixNano()-start) / 1e9
	if elapsed <= 0 {
		return info
	}
	info.ElapsedS = elapsed
	info.RunsPerSecond = float64(info.RunsDone) / elapsed
	info.CellsPerSecond = float64(info.CellsDone) / elapsed
	if info.RunsPerSecond > 0 {
		info.ETAS = float64(info.RunsTotal-info.RunsDone) / info.RunsPerSecond
	}
	m.mu.Lock()
	workers := make([]*telemetry.Counter, len(m.workerBusy))
	copy(workers, m.workerBusy)
	m.mu.Unlock()
	for w, busy := range workers {
		busyS := float64(busy.Value()) / 1e9
		frac := busyS / elapsed
		if frac > 1 {
			frac = 1
		}
		info.Workers = append(info.Workers, telemetry.WorkerProgress{
			Worker: w, BusySeconds: busyS, BusyFraction: frac,
		})
	}
	return info
}
