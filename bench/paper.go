package main

import (
	"fmt"
	"math"
	"runtime"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
	"dpsim/internal/netmodel"
	"dpsim/internal/testbed"
)

// paperConfigs is the number of LU configurations `paperrepro -exp fig10
// -quick` measures and predicts: the basic-graph reference plus five
// granularities × {Basic, P, P+FC}, all on 8 nodes, NOALLOC. Fifteen are
// printed as rows; the reference appears in the table's note.
const paperConfigs = 16

// paperSetup is what the paper-lu child runs with.
var paperSetup = experiments.Setup{Quick: true, Seeds: 1}

// paperLUConfigs restates experiments.Fig10's configuration list
// (unexported there) for the quick scale, in Fig10's order.
func paperLUConfigs() []lu.Config {
	n := paperSetup.N()
	rs := []int{54, 81, 108, 162, 216}
	cfgs := []lu.Config{{N: n, R: rs[len(rs)-1], Nodes: 8}}
	for _, r := range rs {
		basic := lu.Config{N: n, R: r, Nodes: 8}
		p := basic
		p.Pipelined = true
		pfc := p
		pfc.Window = 2 * (n / r)
		cfgs = append(cfgs, basic, p, pfc)
	}
	return cfgs
}

// Engine and platform parameters of experiments.MeasureAndPredict
// (unexported there). tracePaper checks every mirrored measured and
// predicted time against experiments.Fig10's, so a drift here fails the
// benchmark instead of skewing it.
const (
	perStepOverhead = 25 * eventq.Microsecond
	localLatency    = 20 * eventq.Microsecond
	controlBytes    = 64
	testbedSeed     = 0x5eed
)

func simPlatform(nodes int) core.Platform {
	cpu := cpumodel.Defaults()
	cpu.RecvOverhead = 0.08
	cpu.SendOverhead = 0.035
	net := netmodel.Params{Latency: 150 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true}
	return core.NewSimPlatform(nodes, net, cpu)
}

// paperTotals accumulates the exact engine counts of the traced pass.
type paperTotals struct {
	steps, posts, transfers, controlMsgs, fired, mallocs uint64
	testbedSteps, simSteps                               uint64
}

// engineRun builds the LU graph, constructs an engine on the platform
// and runs it, one span per call into lu and core.
func (pt *paperTotals) engineRun(tr *tracer, run, runSpan string, cfg lu.Config, plat core.Platform,
	durations core.DurationSource, record bool) (core.Result, *core.Engine, error) {
	root := tr.open("experiments.engine_run", run, -1)
	defer tr.close(root)
	t0 := nanos()
	app, err := lu.Build(cfg)
	tr.once("lu.build", run, root, t0, nanos())
	if err != nil {
		return core.Result{}, nil, err
	}
	t0 = nanos()
	eng, err := core.New(core.Config{
		Graph: app.Graph, Platform: plat, Durations: durations, NoAlloc: true,
		PerStepOverhead: perStepOverhead, LocalLatency: localLatency, ControlBytes: controlBytes,
		RecordDurations: record,
	})
	tr.once("core.new", run, root, t0, nanos())
	if err != nil {
		return core.Result{}, nil, err
	}
	app.Start(eng)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 = nanos()
	res, err := eng.Run()
	tr.once(runSpan, run, root, t0, nanos())
	if err != nil {
		return core.Result{}, nil, err
	}
	runtime.ReadMemStats(&ms)
	pt.mallocs += ms.Mallocs - before
	pt.steps += res.Steps
	pt.posts += res.Posts
	pt.transfers += res.Transfers
	pt.controlMsgs += res.ControlMsgs
	pt.fired += eng.Queue().Fired()
	return res, eng, nil
}

// measureAndPredict mirrors experiments.MeasureAndPredict at one seed:
// the configuration measured on the virtual testbed, then predicted by
// the simulator platform from the durations the measured run recorded.
func (pt *paperTotals) measureAndPredict(tr *tracer, run string, cfg lu.Config) (measured, predicted float64, err error) {
	cl := testbed.New(testbed.FastEthernetCluster(cfg.Nodes, testbedSeed))
	res, eng, err := pt.engineRun(tr, run, "core.run_testbed", cfg, cl, cl.DurationSource(), true)
	if err != nil {
		return 0, 0, err
	}
	pt.testbedSteps += res.Steps
	measured = res.Elapsed.Seconds()
	table := core.TableSource{Table: eng.DurationTable()}
	res, _, err = pt.engineRun(tr, run, "core.run_sim", cfg, simPlatform(cfg.Nodes), table, false)
	if err != nil {
		return 0, 0, err
	}
	pt.simSteps += res.Steps
	return measured, res.Elapsed.Seconds(), nil
}

// peakQueueDepth is the most events one engine run ever had pending,
// sampled at every engine trace event: the depth the eventq replay runs
// at on this workload.
func peakQueueDepth(cfg lu.Config) (int, error) {
	app, err := lu.Build(cfg)
	if err != nil {
		return 0, err
	}
	peak := 0
	var eng *core.Engine
	eng, err = core.New(core.Config{
		Graph: app.Graph, Platform: simPlatform(cfg.Nodes), NoAlloc: true,
		PerStepOverhead: perStepOverhead, LocalLatency: localLatency, ControlBytes: controlBytes,
		Trace: func(core.TraceEvent) { peak = max(peak, eng.Queue().Len()) },
	})
	if err != nil {
		return 0, err
	}
	app.Start(eng)
	_, err = eng.Run()
	return peak, err
}

// tracePaper is the traced pass of paper-lu: every Fig. 10
// configuration through measureAndPredict, then experiments.Fig10 itself
// — for the harness overhead, and as the oracle every mirrored time
// must equal.
func tracePaper(tr *tracer) (map[string]float64, error) {
	cfgs := paperLUConfigs()
	var pt paperTotals
	measured := make([]float64, len(cfgs))
	predicted := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if measured[i], predicted[i], err = pt.measureAndPredict(tr, fmt.Sprintf("fig10/%d", i), cfg); err != nil {
			return nil, err
		}
	}
	id := tr.open("experiments.fig10", "fig10", -1)
	_, samples, err := experiments.Fig10(paperSetup)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	if len(samples) != len(cfgs) {
		return nil, fmt.Errorf("experiments.Fig10 returned %d samples, want %d", len(samples), len(cfgs))
	}
	for i, s := range samples {
		if s.Measured != measured[i] || s.Predicted != predicted[i] {
			return nil, fmt.Errorf("mirror driver diverged from experiments.Fig10 on %s: measured %v vs %v, predicted %v vs %v",
				s.Label, measured[i], s.Measured, predicted[i], s.Predicted)
		}
	}
	peak, err := peakQueueDepth(cfgs[0])
	if err != nil {
		return nil, err
	}
	return paperMetrics(tr, &pt, samples, peak), nil
}

// paperMetrics derives paper-lu's per-layer metrics from the spans and
// counts. The prediction error compares the simulator with the virtual
// testbed — a more detailed model, not hardware.
func paperMetrics(tr *tracer, pt *paperTotals, samples []metrics.ErrorSample, peak int) map[string]float64 {
	var absErr float64
	for _, s := range samples {
		absErr += math.Abs(s.Predicted-s.Measured) / s.Measured
	}
	tot := tr.totals()
	testbedRun, simRun := tot["core.run_testbed"], tot["core.run_sim"]
	engineS := testbedRun.seconds() + simRun.seconds()
	fig10S := tot["experiments.fig10"].seconds()
	pp, rs, cn := eventqReplay(max(1, peak))
	return map[string]float64{
		"lu.build_ns_per_config": tot["lu.build"].perCall(),

		"core.new_ns_per_run":      tot["core.new"].perCall(),
		"core.run_testbed_s":       testbedRun.seconds(),
		"core.run_sim_s":           simRun.seconds(),
		"core.testbed_ns_per_step": ratio(float64(testbedRun.busyNS), float64(pt.testbedSteps)),
		"core.sim_ns_per_step":     ratio(float64(simRun.busyNS), float64(pt.simSteps)),
		"core.events_per_s":        ratio(float64(pt.fired), engineS),
		"core.allocs_per_step":     ratio(float64(pt.mallocs), float64(pt.steps)),
		"core.steps":               float64(pt.steps),
		"core.posts":               float64(pt.posts),
		"core.transfers":           float64(pt.transfers),
		"core.control_msgs":        float64(pt.controlMsgs),

		"experiments.overhead_share":        ratio(fig10S-engineS, fig10S),
		"experiments.mean_abs_pred_err_pct": 100 * ratio(absErr, float64(len(samples))),

		"eventq.push_pop_ns":   pp,
		"eventq.reschedule_ns": rs,
		"eventq.cancel_ns":     cn,
	}
}

// measurePaperSetup is paper-lu's set-up — its input is the
// configuration list, and ready-to-simulate means every flow graph is
// built: it builds all Fig. 10 graphs once and returns the seconds taken.
func measurePaperSetup() (float64, error) {
	t0 := nanos()
	for _, cfg := range paperLUConfigs() {
		if _, err := lu.Build(cfg); err != nil {
			return 0, err
		}
	}
	return float64(nanos()-t0) / 1e9, nil
}
