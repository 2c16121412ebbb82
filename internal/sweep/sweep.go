// Package sweep expands a scenario into an experiment grid — arrival
// process × availability process × cluster size × offered load ×
// scheduler × application model — and runs every cell, replicated over
// derived seeds, across a pool of parallel workers. A federated
// scenario instead sweeps its admission × routing policy axes over the
// fixed multi-cluster topology declared in the federation block.
//
// A sweep is plan → execute → fold. The plan (plan.go) expands the grid
// once into units — one per unique cell content hash (hash.go) this
// process owns, holding the cells that display it, the replications a
// checkpoint already folded and one accumulator — plus the list of
// (unit, replication) runs still owed; runGrid executes that list on
// the worker pool and folds completions strictly in list order.
//
// Results are bit-identical for identical scenarios regardless of
// worker count, sharding, deduplication or resume: every replication's
// seed is a pure function of (cell hash, replication index), workers
// only park completed runs at their index in the owed list, and a unit
// always folds its replications in index order. The same hash keys the
// resumable fold checkpoints (checkpoint.go), which are also the
// cross-process shards' artifacts (shard.go).
package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpsim/internal/cluster"
	"dpsim/internal/metrics"
	"dpsim/internal/obs"
	"dpsim/internal/scenario"
)

// Cell is one point of the experiment grid. Scheduler is the policy's
// parameterized label (scenario.SchedulerSpec.Label()): a valid spec
// string that fully identifies the policy, parameters included.
// AppModel likewise labels the cell's application performance model
// (scenario.AppModelSpec.Label()) — "mix" is the native baseline where
// every mix component keeps its own registered model.
//
// Labels are for display: when an axis holds two identical specs, the
// duplicates' labels get a "#idx" suffix so exported rows stay
// distinguishable. Cell identity — seeding, dedup, checkpoint and shard
// keys — comes from the undecorated specs via the content hash
// (CellHashes), so decorated duplicates still hash identically.
type Cell struct {
	Arrival      string  `json:"arrival"`
	ArrivalIdx   int     `json:"-"`
	Avail        string  `json:"availability"`
	AvailIdx     int     `json:"-"`
	Nodes        int     `json:"nodes"`
	Load         float64 `json:"load"`
	Scheduler    string  `json:"scheduler"`
	SchedulerIdx int     `json:"-"`
	AppModel     string  `json:"appmodel"`
	AppModelIdx  int     `json:"-"`
	// Admission and Routing name the federation policies of a federated
	// cell (scenario.AdmissionSpec/RoutingSpec labels). Non-federated
	// grids collapse both axes to the single pseudo-entry "none" with
	// index -1, adding no cells, so legacy grids keep their order. In a
	// federated grid the per-cluster topology (schedulers, app models,
	// availability) lives in the federation block, so the Scheduler,
	// AppModel and Avail columns all read "federated" with index -1.
	Admission    string `json:"admission"`
	AdmissionIdx int    `json:"-"`
	Routing      string `json:"routing"`
	RoutingIdx   int    `json:"-"`
}

// String names the cell by all eight grid coordinates, for errors.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%d nodes/load %g/%s/%s/%s/%s", c.Arrival, c.Avail, c.Nodes, c.Load,
		c.Scheduler, c.AppModel, c.Admission, c.Routing)
}

// CellStats aggregates a cell's replications.
type CellStats struct {
	Cell
	// Hash is the cell's content hash. It is not a CSV or JSON column;
	// dpssweep's table shows it abbreviated, for -cell to replay the row.
	Hash         CellHash `json:"-"`
	Replications int      `json:"replications"`
	// Jobs is the total finished jobs pooled over all replications;
	// Unfinished counts jobs that arrived but never completed (e.g.
	// stranded by a permanent capacity loss) — response/wait/slowdown
	// statistics cover finished jobs only, so a non-zero Unfinished
	// flags survivorship bias in them.
	Jobs       int `json:"jobs"`
	Unfinished int `json:"unfinished"`
	// Response-time statistics over the pooled per-job responses [s].
	MeanResponse float64 `json:"mean_response_s"`
	P50Response  float64 `json:"p50_response_s"`
	P95Response  float64 `json:"p95_response_s"`
	P99Response  float64 `json:"p99_response_s"`
	// MeanWait averages the pooled per-job arrival→first-allocation
	// delays [s].
	MeanWait float64 `json:"mean_wait_s"`
	// Per-replication means.
	MeanMakespan    float64 `json:"mean_makespan_s"`
	MeanUtilization float64 `json:"mean_utilization"`
	// MeanAvailUtilization is utilization against the capacity the
	// volatile pool actually offered (equals MeanUtilization for a fixed
	// pool).
	MeanAvailUtilization float64 `json:"mean_avail_utilization"`
	// MeanSlowdown averages the pooled bounded slowdowns.
	MeanSlowdown float64 `json:"mean_slowdown"`
	// Availability dynamics, per-replication means: scheduler allocation
	// changes, applied capacity changes, work-seconds rolled back by
	// abrupt reclaims, and seconds of redistribution pause charged on
	// allocation deltas (the churn a hysteresis policy bounds).
	MeanReallocations  float64 `json:"mean_reallocations"`
	MeanCapacityEvents float64 `json:"mean_capacity_events"`
	MeanLostWork       float64 `json:"mean_lost_work_s"`
	MeanRedistribution float64 `json:"mean_redistribution_s"`
	// MeanRejected is the per-replication mean count of jobs turned away
	// by the federation admission policy. Always 0 for non-federated
	// cells (nothing rejects) and for the always-admit policy.
	MeanRejected float64 `json:"mean_rejected_jobs"`
	// 95% confidence half-widths (normal approximation, Welford
	// variance): CI95Response over the pooled per-job responses,
	// CI95Makespan over the per-replication makespans. Zero when fewer
	// than two observations exist.
	CI95Response float64 `json:"ci95_response_s"`
	CI95Makespan float64 `json:"ci95_makespan_s"`
	// Extremes of the pooled per-job responses (streamed, exact). Nil
	// when the cell finished no jobs — exported as empty CSV fields and
	// JSON nulls, since a literal 0 would be indistinguishable from a
	// genuine zero-second response.
	MinResponse *float64 `json:"min_response_s"`
	MaxResponse *float64 `json:"max_response_s"`
}

// cellAccum streams one unit's replications into running aggregates as
// they complete. Means that must stay bit-identical to the historical
// pooled computation are kept as running sums folded in replication
// order (the addition order matches the old pooled-slice walk exactly);
// only the response quantiles still pool values, since an exact
// percentile needs the full sample. The accumulator is its own
// checkpoint record (checkpoint.go): it round-trips through JSON
// exactly, which is what makes resumed sweeps byte-identical to
// uninterrupted ones. The pooled responses ride along so percentile
// columns survive the resume — the dominant cost of a checkpoint,
// proportional to jobs folded so far.
type cellAccum struct {
	Unfinished int       `json:"unfinished"`
	RespSum    float64   `json:"resp_sum"`
	WaitSum    float64   `json:"wait_sum"`
	SlowSum    float64   `json:"slow_sum"`
	SlowN      int       `json:"slow_n"`
	Responses  []float64 `json:"responses"` // pooled for P50/P95/P99 only
	Makespan   float64   `json:"makespan_s"`
	Util       float64   `json:"utilization"`
	AvailUtil  float64   `json:"avail_utilization"`
	Reallocs   float64   `json:"reallocations"`
	CapEvents  float64   `json:"capacity_events"`
	LostWork   float64   `json:"lost_work_s"`
	RedistS    float64   `json:"redistribution_s"`
	// Rejected sums the federation admission rejections; omitted from
	// legacy checkpoints, it restores as 0 — exactly what a non-federated
	// cell folded.
	Rejected  float64         `json:"rejected_jobs,omitempty"`
	RespW     metrics.Welford `json:"resp_welford"`
	MakespanW metrics.Welford `json:"makespan_welford"`
	RespMM    metrics.MinMax  `json:"resp_minmax"`
}

// fold absorbs one completed replication. reps sizes the pooled
// response buffer on first use: per-job counts are near-constant across
// a cell's replications, so one allocation usually serves the cell.
func (a *cellAccum) fold(run *scenario.CellRun, reps int) {
	if a.Responses == nil && len(run.Result.PerJob) > 0 {
		a.Responses = make([]float64, 0, len(run.Result.PerJob)*reps)
	}
	for _, j := range run.Result.PerJob {
		a.RespSum += j.Response
		a.WaitSum += j.Wait
		a.Responses = append(a.Responses, j.Response)
		a.RespW.Add(j.Response)
		a.RespMM.Add(j.Response)
	}
	for _, s := range run.Slowdowns {
		a.SlowSum += s
		a.SlowN++
	}
	a.Unfinished += run.Result.Unfinished
	a.Makespan += run.Result.Makespan
	a.Util += run.Result.Utilization
	a.AvailUtil += run.Result.AvailWeightedUtilization
	a.Reallocs += float64(run.Result.Reallocations)
	a.CapEvents += float64(run.Result.CapacityEvents)
	a.LostWork += run.Result.LostWorkS
	a.RedistS += run.Result.RedistributionS
	a.Rejected += float64(run.Rejected)
	a.MakespanW.Add(run.Result.Makespan)
}

// stats finalizes the accumulator into the exported aggregate.
func (a *cellAccum) stats(c Cell, reps int) CellStats {
	st := CellStats{Cell: c, Replications: reps, Jobs: len(a.Responses), Unfinished: a.Unfinished}
	if n := len(a.Responses); n > 0 {
		st.MeanResponse = a.RespSum / float64(n)
		st.MeanWait = a.WaitSum / float64(n)
	}
	sort.Float64s(a.Responses) // cell-local; sort once for all quantiles
	st.P50Response = metrics.PercentileSorted(a.Responses, 0.50)
	st.P95Response = metrics.PercentileSorted(a.Responses, 0.95)
	st.P99Response = metrics.PercentileSorted(a.Responses, 0.99)
	st.MeanMakespan = a.Makespan / float64(reps)
	st.MeanUtilization = a.Util / float64(reps)
	st.MeanAvailUtilization = a.AvailUtil / float64(reps)
	if a.SlowN > 0 {
		st.MeanSlowdown = a.SlowSum / float64(a.SlowN)
	}
	st.MeanReallocations = a.Reallocs / float64(reps)
	st.MeanCapacityEvents = a.CapEvents / float64(reps)
	st.MeanLostWork = a.LostWork / float64(reps)
	st.MeanRedistribution = a.RedistS / float64(reps)
	st.MeanRejected = a.Rejected / float64(reps)
	st.CI95Response = a.RespW.CI95()
	st.CI95Makespan = a.MakespanW.CI95()
	if a.RespMM.N() > 0 {
		mn, mx := a.RespMM.Min(), a.RespMM.Max()
		st.MinResponse, st.MaxResponse = &mn, &mx
	}
	return st
}

// ErrInterrupted reports a sweep stopped by Options.Interrupted. When a
// Checkpoint path is configured, the final checkpoint has been written,
// so re-running with the same path resumes where the sweep stopped.
var ErrInterrupted = errors.New("sweep: interrupted")

// DefaultCheckpointEvery is the checkpoint cadence when
// Options.CheckpointEvery is unset: the checkpoint file is rewritten
// after this many executed runs.
const DefaultCheckpointEvery = 256

// Options tunes a sweep run.
type Options struct {
	// Replications per cell (default 1).
	Replications int
	// Workers caps the worker pool (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each executed run with
	// (done, total), where total counts the runs this process actually
	// executes — deduplicated, checkpoint-restored and other-shard runs
	// are excluded. Calls arrive from worker goroutines.
	Progress func(done, total int)
	// Observe, when non-nil, constructs the observability probe of each
	// member cluster of each replication before it runs (a non-federated
	// cell is its own single member). It is called from worker goroutines
	// and must be safe for concurrent use; returning nil leaves that
	// member unobserved (the zero-cost path). The sample interval comes
	// from the scenario's observe block (Spec.Observe.SampleDTS).
	// Observation disables dedup (probes are per-run side effects that
	// a shared unit would skip), and checkpoint-restored replications are
	// not re-observed.
	Observe func(o Observation) obs.Probe
	// OnObserved hands each observed member's probe back at the in-order
	// fold frontier: calls arrive strictly in (cell, replication, member)
	// index order, serialized under the sweep's lock, so a sink writing
	// CSV or traces needs no synchronization and its output is
	// bit-identical across worker counts.
	OnObserved func(o Observation, p obs.Probe)
	// Cell, when non-empty, is a lowercase-hex prefix of a cell content
	// hash: only the cells carrying that hash run (see CellsMatching).
	// Their seeds are the full grid's, so every row replays the full
	// grid's row byte for byte.
	Cell string
	// Metrics, when non-nil, instruments the run on its
	// telemetry.Registry: runs started/finished/errored, per-worker busy
	// time, the fold frontier, and job totals (see Metrics for the cost
	// and determinism contracts). Nil leaves the zero-cost path: one nil
	// check per run, no atomics, no allocations. One Metrics must not be
	// shared by concurrent Run calls.
	Metrics *Metrics
	// Shard restricts execution to one content-hash partition of the
	// grid. The zero value runs the whole grid. Sharded execution is
	// driven through RunShard; Run rejects a non-trivial Shard because
	// its full-grid report would cover only the owned cells. The
	// checkpoint records the selection, and a resume under another one is
	// an error.
	Shard ShardSel
	// Checkpoint, when non-empty, is the path of the resumable fold
	// checkpoint: the sweep restores matching per-unit state from it on
	// start, rewrites it every CheckpointEvery executed runs and on
	// completion, error or interrupt (atomic rename — never torn).
	// Entries are keyed by cell content hash, so a resume survives grid
	// edits: cells whose hash is unchanged restore, new or edited cells
	// run from scratch.
	Checkpoint string
	// CheckpointEvery is the checkpoint cadence in executed runs
	// (default DefaultCheckpointEvery). Ignored without Checkpoint.
	CheckpointEvery int
	// Interrupted, when non-nil, is polled between job dispatches; once
	// it returns true the sweep stops handing out runs, drains the
	// in-flight ones, writes a final checkpoint and returns
	// ErrInterrupted.
	Interrupted func() bool
}

// Observation names one member cluster of one observed replication:
// the grid cell, its content hash, the replication index and, in a
// federated cell, the member cluster ("" in a non-federated cell).
type Observation struct {
	Cell    Cell
	Hash    CellHash
	Rep     int
	Cluster string
}

// Label names the observation in trace processes and run summaries:
// the cell's policy — its scheduler, or "<admission>/<routing>:<cluster>"
// for a federation member — then the cell column of dpssweep's table
// and the replication, e.g. "equipartition f2a1465f7015 rep 0".
func (o Observation) Label() string {
	policy := o.Cell.Scheduler
	if o.Cluster != "" {
		policy = o.Cell.Admission + "/" + o.Cell.Routing + ":" + o.Cluster
	}
	return fmt.Sprintf("%s %s rep %d", policy, o.Hash.Short(), o.Rep)
}

// axisEntry pairs an axis entry's display label with its spec index
// (-1 for the pseudo-entry of an empty axis).
type axisEntry struct {
	label string
	idx   int
}

// axisEntries expands one optional axis: an empty axis collapses to the
// single pseudo-entry `none` (so legacy grids keep their historical
// cell order); a populated one resolves each entry's display label,
// suffixing duplicates with "#idx" so every exported row names its cell
// unambiguously. Duplicate detection runs against the undecorated
// labels, and identity (hashing, seeding, dedup) never sees the
// decoration.
func axisEntries(n int, none string, label func(int) string) []axisEntry {
	if n == 0 {
		return []axisEntry{{label: none, idx: -1}}
	}
	out := make([]axisEntry, n)
	for i := range out {
		out[i] = axisEntry{label: label(i), idx: i}
	}
	dup := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if out[i].label == out[j].label {
				dup[i], dup[j] = true, true
			}
		}
	}
	for i := range out {
		if dup[i] {
			out[i].label = fmt.Sprintf("%s#%d", out[i].label, i)
		}
	}
	return out
}

// Cells expands the scenario's grid in canonical order: arrival process,
// then availability process, then nodes, then load, then scheduler, then
// application performance model. A scenario without availability
// processes gets the single fixed-pool pseudo-entry "none"; one without
// appmodels gets the single native-model pseudo-entry "mix" — in both
// cases the axis adds no cells, so legacy grids keep their historical
// cell order. Two axis entries may share a spec (e.g. spot with and
// without notice, or A/B copies of one scheduler): duplicates keep
// their position but their labels get a "#idx" suffix.
//
// A federated scenario replaces the scheduler, availability and
// appmodel axes (the per-cluster topology lives in the federation
// block — validation forbids the spec-level axes) with the single
// pseudo-entry "federated", and instead sweeps the federation's
// admission × routing policy axes, innermost after appmodel.
// Non-federated grids collapse both policy axes to the single
// pseudo-entry "none", adding no cells.
func Cells(spec *scenario.Spec) []Cell {
	avail := axisEntries(len(spec.Availability), "none",
		func(i int) string { return spec.Availability[i].Label() })
	models := axisEntries(len(spec.AppModels), "mix",
		func(i int) string { return spec.AppModels[i].Label() })
	scheds := axisEntries(len(spec.Schedulers), "none",
		func(i int) string { return spec.Schedulers[i].Label() })
	admissions := []axisEntry{{label: "none", idx: -1}}
	routings := []axisEntry{{label: "none", idx: -1}}
	if f := spec.Federation; f != nil {
		fed := []axisEntry{{label: "federated", idx: -1}}
		avail, models, scheds = fed, fed, fed
		admissions = axisEntries(len(f.Admissions), "always",
			func(i int) string { return f.Admissions[i].Label() })
		routings = axisEntries(len(f.Routings), "round-robin",
			func(i int) string { return f.Routings[i].Label() })
	}
	out := make([]Cell, 0,
		len(spec.Arrivals)*len(avail)*len(spec.Nodes)*len(spec.Loads)*
			len(scheds)*len(models)*len(admissions)*len(routings))
	for ai, a := range spec.Arrivals {
		for _, v := range avail {
			for _, n := range spec.Nodes {
				for _, l := range spec.Loads {
					for _, s := range scheds {
						for _, m := range models {
							for _, ad := range admissions {
								for _, rt := range routings {
									out = append(out, Cell{
										Arrival: a.Label(), ArrivalIdx: ai,
										Avail: v.label, AvailIdx: v.idx,
										Nodes: n, Load: l,
										Scheduler: s.label, SchedulerIdx: s.idx,
										AppModel: m.label, AppModelIdx: m.idx,
										Admission: ad.label, AdmissionIdx: ad.idx,
										Routing: rt.label, RoutingIdx: rt.idx,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Run executes the full grid and returns one aggregate per cell, in
// Cells() order.
func Run(spec *scenario.Spec, opt Options) ([]CellStats, error) {
	if opt.Shard.Count > 1 {
		return nil, fmt.Errorf("sweep: Run covers the whole grid; use RunShard for shard %d/%d",
			opt.Shard.Index, opt.Shard.Count)
	}
	p, err := runGrid(spec, opt)
	if err != nil {
		return nil, err
	}
	return p.stats(), nil
}

// runGrid plans the sweep (plan.go) and executes the runs the plan still
// owes on the worker pool, folding them into their units through the
// in-order frontier. It returns the plan with every unit fully folded.
func runGrid(spec *scenario.Spec, opt Options) (*plan, error) {
	restore, err := resume(&opt)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(spec, opt, restore)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(p.runs))
	ckEvery := opt.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = DefaultCheckpointEvery
	}
	m := opt.Metrics
	if m != nil {
		m.begin(p, workers)
	}

	// Completed runs park here, each with its probes, until the frontier
	// reaches them — which hands OnObserved its deterministic order.
	type parkedRun struct {
		run    *scenario.CellRun
		probes []obs.Probe
	}
	pending := make([]parkedRun, len(p.runs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int // fold frontier: p.runs[:next] have folded
		parked   int // grid slots of the runs completed ahead of it
		done     int // runs executed, errored ones included
		stopped  atomic.Bool
	)

	// advance moves the fold frontier over every contiguous completed
	// run, releasing each run's per-job data as it is absorbed: runs
	// must fold in index order (the float sums are order-sensitive and
	// the exports are pinned bit-for-bit across worker counts), so
	// out-of-order completions park in pending until the frontier
	// catches up — memory stays bounded by the in-flight spread instead
	// of the whole grid's per-job data. Called under mu.
	advance := func() {
		for ; next < len(p.runs) && pending[next].run != nil; next++ {
			r, got := p.runs[next], pending[next]
			pending[next] = parkedRun{}
			u := &p.units[r.unit]
			p.fold(u, got.run)
			parked -= len(u.cells)
			for m, probe := range got.probes {
				if probe != nil && opt.OnObserved != nil {
					opt.OnObserved(p.observation(u, r.rep, m), probe)
				}
			}
		}
	}

	jobs := make(chan int)
	for range workers {
		wg.Add(1)
		// The closure takes no arguments on purpose: `go f(w)` would
		// heap-allocate the argument record even with opt.Metrics nil.
		// Workers self-number through the Metrics when one is attached.
		go func() {
			defer wg.Done()
			worker := 0
			if m != nil {
				worker = m.claimWorker()
			}
			for idx := range jobs {
				r := p.runs[idx]
				u := &p.units[r.unit]
				run, probes, err := p.execute(spec, &opt, u, r.rep, worker)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					// Fail fast: the dispatcher stops handing out runs; the
					// in-flight ones drain so the fold frontier stays
					// consistent for the final checkpoint. The errored run
					// never parks — the frontier stalls before it, so the
					// checkpoint records only replications whose data was
					// actually absorbed and a resume re-runs this one.
					stopped.Store(true)
				} else {
					pending[idx] = parkedRun{run, probes}
					parked += len(u.cells)
					advance()
				}
				done++
				if m != nil {
					m.noteFold(p.settled, parked, p.cellsDone)
				}
				if opt.Checkpoint != "" && done%ckEvery == 0 {
					if err := p.save(spec.Name, &opt); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("sweep: checkpoint: %w", err)
						stopped.Store(true)
					}
				}
				if opt.Progress != nil {
					// Under the lock so counts reach the callback in order
					// (a stale count printed after the final one would
					// corrupt progress displays).
					opt.Progress(done, len(p.runs))
				}
				mu.Unlock()
			}
		}()
	}

	for idx := range p.runs {
		if stopped.Load() {
			break
		}
		if opt.Interrupted != nil && opt.Interrupted() {
			mu.Lock()
			if firstErr == nil {
				firstErr = ErrInterrupted
			}
			mu.Unlock()
			break
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	// The final checkpoint lands on every exit path — completion, error,
	// interrupt — so the next run never re-executes folded work.
	if opt.Checkpoint != "" {
		if err := p.save(spec.Name, &opt); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sweep: checkpoint: %w", err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return p, nil
}

// runCell runs one replication; a variable so tests can inject faulty
// results.
var runCell = (*scenario.Spec).RunCell

// execute runs one replication of u — seeded by (hash, replication),
// with cells[0]'s axis indices — observed and metered as opt asks. A
// panic or a non-finite result — folded, or of one federation member —
// errors the run, naming the cell, hash, replication and seed.
func (p *plan) execute(spec *scenario.Spec, opt *Options, u *unit, rep, worker int) (*scenario.CellRun, []obs.Probe, error) {
	c := p.cells[u.cells[0]]
	var probes []obs.Probe
	if opt.Observe != nil {
		probes = make([]obs.Probe, len(p.members))
		for m := range probes {
			probes[m] = opt.Observe(p.observation(u, rep, m))
		}
	}
	m := opt.Metrics
	var t0 time.Time
	if m != nil {
		m.runsStarted.Inc()
		t0 = time.Now()
	}
	seed := runSeed(u.hash, rep)
	run, err := func() (run *scenario.CellRun, err error) {
		// A panic inside the run — a policy breaking the allocation
		// contract, an event scheduled before now — errors this run
		// instead of killing the process: the sweep takes its error path,
		// which saves the checkpoint and exits non-zero.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic in unit %s, seed %d: %v\n%s", u.hash, seed, r, debug.Stack())
			}
		}()
		run, err = runCell(spec, scenario.CellParams{
			Nodes:        c.Nodes,
			Load:         c.Load,
			SchedulerIdx: c.SchedulerIdx,
			ArrivalIdx:   c.ArrivalIdx,
			AvailIdx:     c.AvailIdx,
			AppModelIdx:  c.AppModelIdx,
			AdmissionIdx: c.AdmissionIdx,
			RoutingIdx:   c.RoutingIdx,
			Seed:         seed,
			MemberProbes: probes,
		})
		if err == nil {
			if field, v, ok := nonFinite(&run.Result); ok {
				err = fmt.Errorf("non-finite %s = %g in unit %s, seed %d", field, v, u.hash, seed)
			}
			for i := 0; err == nil && i < len(run.ClusterResults); i++ {
				if field, v, ok := nonFinite(&run.ClusterResults[i]); ok {
					err = fmt.Errorf("non-finite %s = %g in member %s of unit %s, seed %d", field, v, p.members[i], u.hash, seed)
				}
			}
		}
		return run, err
	}()
	if m != nil {
		jobsDone, unfinished := 0, 0
		if run != nil {
			jobsDone = len(run.Result.PerJob)
			unfinished = run.Result.Unfinished
		}
		m.noteRun(worker, time.Since(t0), jobsDone, unfinished, err != nil)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: cell %s rep %d: %w", c, rep, err)
	}
	return run, probes, nil
}

// nonFinite reports the first NaN or infinite value among the result
// fields the sweep folds, by name: folded into a cell's sums it would
// silently poison every aggregate of the cell.
func nonFinite(r *cluster.Result) (string, float64, bool) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Makespan", r.Makespan},
		{"Utilization", r.Utilization}, {"AvailWeightedUtilization", r.AvailWeightedUtilization},
		{"LostWorkS", r.LostWorkS}, {"RedistributionS", r.RedistributionS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f.name, f.v, true
		}
	}
	for _, j := range r.PerJob {
		if math.IsNaN(j.Response) || math.IsInf(j.Response, 0) {
			return fmt.Sprintf("response of job %d", j.ID), j.Response, true
		}
		if math.IsNaN(j.Wait) || math.IsInf(j.Wait, 0) {
			return fmt.Sprintf("wait of job %d", j.ID), j.Wait, true
		}
	}
	return "", 0, false
}
