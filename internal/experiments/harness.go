// Package experiments regenerates every table and figure of the paper's
// evaluation (§7–8): Table 1 (simulation cost and portability), Figs. 8–10
// (flow-graph variants and decomposition granularity), Fig. 11 (dynamic
// efficiency), Fig. 12 (thread-removal strategies) and Fig. 13 (prediction
// error histogram), plus the model ablations §4 motivates.
//
// Protocol: each configuration runs on the virtual cluster testbed
// (internal/testbed) with several noise seeds — the "Measurement" series —
// and once on the simulator platform (internal/core.SimPlatform) with
// PDEXEC durations calibrated from the first measured run — the
// "Prediction" series. This mirrors the paper, where the simulator
// predicts a real cluster from benchmarked operation times and a small set
// of platform parameters. Every engine, testbed or simulator, runs through
// runLU, which alone sets the engine overheads both platforms share.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
	"dpsim/internal/netmodel"
	"dpsim/internal/testbed"
)

// Setup selects problem scale and repetition count.
type Setup struct {
	// Quick halves the matrix and block sizes (same block counts, same
	// graph shapes) so the whole suite runs in seconds. Used by tests and
	// benchmarks; the cmd/paperrepro tool defaults to full scale.
	Quick bool
	// Seeds is the number of measured repetitions per configuration
	// (default 3).
	Seeds int
	// BaseSeed decorrelates repetition sets.
	BaseSeed uint64
}

func (s *Setup) fill() {
	if s.Seeds <= 0 {
		s.Seeds = 3
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 0x5eed
	}
}

// scale maps the paper's matrix/block sizes to the setup's scale.
func (s Setup) scale(v int) int {
	if s.Quick {
		return v / 2
	}
	return v
}

// N returns the matrix size (paper: 2592).
func (s Setup) N() int { return s.scale(2592) }

// Engine overheads shared by every platform: the simulator directly
// executes the same DPS runtime, so it knows these costs exactly. runLU is
// their one reader.
const (
	perStepOverhead = 25 * eventq.Microsecond
	localLatency    = 20 * eventq.Microsecond
	controlBytes    = 64
)

// simNetParams returns the simulator's measured platform parameters for
// the Fast Ethernet testbed: l from small-message ping-pong, b the link
// bandwidth.
func simNetParams() netmodel.Params {
	return netmodel.Params{
		Latency:    150 * eventq.Microsecond,
		Bandwidth:  12.5e6,
		Contention: true,
	}
}

// simCPUParams returns the simulator's communication-overhead
// characterization (measured once per platform, application-independent).
func simCPUParams() cpumodel.Params {
	p := cpumodel.Defaults()
	p.RecvOverhead = 0.08
	p.SendOverhead = 0.035
	return p
}

// LURun is the outcome of measuring and predicting one LU configuration.
type LURun struct {
	Label     string
	Cfg       lu.Config
	Measured  []float64 // testbed elapsed seconds, one per seed
	Predicted float64   // simulator elapsed seconds
	// Per-iteration statistics of the first measured run and of the
	// prediction (dynamic efficiency, Fig. 11).
	MeasuredIters  []metrics.IterationStat
	PredictedIters []metrics.IterationStat
	// Steps and Events total the atomic steps executed and queue events
	// fired by every engine behind the run (the measured repetitions and
	// the prediction): the denominators of the simulator's per-step cost.
	Steps, Events uint64
}

// MeasuredMean returns the mean measured time.
func (r *LURun) MeasuredMean() float64 { return metrics.Mean(r.Measured) }

// Samples converts the run into prediction-error samples (one per seed).
func (r *LURun) Samples() []metrics.ErrorSample {
	out := make([]metrics.ErrorSample, 0, len(r.Measured))
	for i, m := range r.Measured {
		out = append(out, metrics.ErrorSample{
			Label:     fmt.Sprintf("%s/seed%d", r.Label, i),
			Measured:  m,
			Predicted: r.Predicted,
		})
	}
	return out
}

// nodesFor returns the platform size needed by a config.
func nodesFor(cfg lu.Config) int {
	n := cfg.Nodes
	if cfg.MultNodes > n {
		n = cfg.MultNodes
	}
	return n
}

// runLU is the one LU run path of the paper harness. It builds cfg's
// flow graph, fills in c's Graph, Platform (plat) and engine overheads,
// seeds the matrix when the run allocates (!c.NoAlloc), starts the
// application and runs it. It returns the filled application, the engine
// and its result; a nil engine means lu or core rejected the
// configuration before anything ran.
func runLU(cfg lu.Config, plat core.Platform, c core.Config) (*lu.App, *core.Engine, core.Result, error) {
	app, err := lu.Build(cfg)
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	c.Graph, c.Platform = app.Graph, plat
	c.PerStepOverhead, c.LocalLatency, c.ControlBytes = perStepOverhead, localLatency, controlBytes
	eng, err := core.New(c)
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	if !c.NoAlloc {
		app.Prepare(eng.Store, 1)
	}
	app.Start(eng)
	res, err := eng.Run()
	return app, eng, res, err
}

// iterations returns a run's per-iteration statistics (dynamic
// efficiency, Fig. 11).
func iterations(app *lu.App, eng *core.Engine, res core.Result) []metrics.IterationStat {
	c := app.Cfg
	return metrics.Iterations(eng.Phases(), eng.Allocations(), res.Elapsed,
		func(k int) eventq.Duration { return lu.SerialWork(c.Costs, c.N, c.R, k) })
}

// MeasureAndPredict runs one configuration on the testbed (Setup.Seeds
// times) and once on the simulator with durations calibrated from the
// first measured run.
func MeasureAndPredict(label string, cfg lu.Config, s Setup) (*LURun, error) {
	s.fill()
	run := &LURun{Label: label, Cfg: cfg}
	// record adds an engine run to the totals, and a failed run's error
	// gains where it happened; a configuration rejected before running
	// fails with lu's or core's error as is.
	record := func(eng *core.Engine, res core.Result, err error, where string, args ...any) error {
		if err != nil {
			if eng == nil {
				return err
			}
			return fmt.Errorf("%s (%s): %w", label, fmt.Sprintf(where, args...), err)
		}
		run.Steps += res.Steps
		run.Events += eng.Queue().Fired()
		return nil
	}

	var table map[string]eventq.Duration
	for i := 0; i < s.Seeds; i++ {
		cl := testbed.New(testbed.FastEthernetCluster(nodesFor(cfg), s.BaseSeed+uint64(i)*7919))
		app, eng, res, err := runLU(cfg, cl, core.Config{
			Durations: cl.DurationSource(), NoAlloc: true, RecordDurations: i == 0,
		})
		if err := record(eng, res, err, "measured, seed %d", i); err != nil {
			return nil, err
		}
		run.Cfg = app.Cfg // filled defaults (cost model, thread counts)
		run.Measured = append(run.Measured, res.Elapsed.Seconds())
		if i == 0 {
			table = eng.DurationTable()
			run.MeasuredIters = iterations(app, eng, res)
		}
	}

	plat := core.NewSimPlatform(nodesFor(cfg), simNetParams(), simCPUParams())
	app, eng, res, err := runLU(cfg, plat, core.Config{Durations: core.TableSource{Table: table}, NoAlloc: true})
	if err := record(eng, res, err, "predicted"); err != nil {
		return nil, err
	}
	run.Predicted = res.Elapsed.Seconds()
	run.PredictedIters = iterations(app, eng, res)
	return run, nil
}

// config is one labelled LU configuration of a figure.
type config struct {
	label string
	cfg   lu.Config
}

// measureAll runs MeasureAndPredict for every configuration of a figure
// and returns the runs in configuration order.
func measureAll(cfgs []config, s Setup) ([]*LURun, error) {
	return inParallel(len(cfgs), func(i int) (*LURun, error) {
		return MeasureAndPredict(cfgs[i].label, cfgs[i].cfg, s)
	})
}

// inParallel calls fn(0) … fn(n-1) on up to GOMAXPROCS goroutines and
// returns the results in index order. The calls must be independent — a
// figure's configurations are: each builds its own graph, platforms and
// engines — so the outcome does not depend on the worker count. Indices
// are handed out in ascending order and none is started after a failure,
// so every index below a failing one has run: the error returned is that
// of the lowest failing index, whatever the interleaving.
func inParallel[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker() // the caller is the first worker: GOMAXPROCS=1 starts no goroutine
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- text tables ---

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
