package experiments

import (
	"fmt"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
)

// Ablations exercises the model knobs the paper's §4 singles out: network
// contention, communication CPU overhead, processor sharing, and the
// what-if studies a parametric model enables (faster network, lower
// latency). All runs are predictions with analytic durations on the same
// application configuration, so the deltas isolate each model term.
func Ablations(s Setup) (*Table, error) {
	s.fill()
	cfg := lu.Config{N: s.N(), R: s.scale(324), Nodes: 8, Pipelined: true}

	type knob struct {
		label string
		net   func(*netmodel.Params)
		cpu   func(*cpumodel.Params)
	}
	knobs := []knob{
		{label: "full model (baseline)"},
		{label: "no network contention", net: func(p *netmodel.Params) { p.Contention = false }},
		{label: "max-min fairness (vs equal share)", net: func(p *netmodel.Params) { p.MaxMin = true }},
		{label: "no comm CPU overhead", cpu: func(p *cpumodel.Params) { p.CommOverhead = false }},
		{label: "no processor sharing", cpu: func(p *cpumodel.Params) { p.Sharing = false }},
		{label: "10x bandwidth (what-if)", net: func(p *netmodel.Params) { p.Bandwidth *= 10 }},
		{label: "10x lower latency (what-if)", net: func(p *netmodel.Params) { p.Latency /= 10 }},
	}

	t := &Table{
		Title:  fmt.Sprintf("Model ablations — LU %dx%d r=%d, pipelined, 8 nodes (predictions)", cfg.N, cfg.N, cfg.R),
		Header: []string{"model", "predicted[s]", "vs baseline"},
	}
	secs, err := inParallel(len(knobs), func(i int) (float64, error) {
		k := knobs[i]
		np := simNetParams()
		cp := simCPUParams()
		if k.net != nil {
			k.net(&np)
		}
		if k.cpu != nil {
			k.cpu(&cp)
		}
		sec, err := predictAnalytic(cfg, np, cp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.label, err)
		}
		return sec, nil
	})
	if err != nil {
		return nil, err
	}
	t.Add(knobs[0].label, f1(secs[0]), "-")
	for i, sec := range secs[1:] {
		t.Add(knobs[i+1].label, f1(sec), pct(sec/secs[0]-1))
	}
	return t, nil
}

// predictAnalytic predicts cfg's running time on an 8-node simulator
// platform with the given model parameters and purely analytic durations.
func predictAnalytic(cfg lu.Config, np netmodel.Params, cp cpumodel.Params) (float64, error) {
	app, err := lu.Build(cfg)
	if err != nil {
		return 0, err
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        core.NewSimPlatform(8, np, cp),
		NoAlloc:         true,
		PerStepOverhead: perStepOverhead,
		LocalLatency:    localLatency,
		ControlBytes:    controlBytes,
	})
	if err != nil {
		return 0, err
	}
	app.Start(eng)
	res, err := eng.Run()
	return res.Elapsed.Seconds(), err
}

// WindowSweep predicts the pipelined LU's running time over a range of
// flow-control windows: the tuning study behind the paper's FC variant
// (§6: limiting the requests in circulation improves interleaving, but a
// window that is too tight starves the multiplication threads).
func WindowSweep(s Setup) (*Table, error) {
	s.fill()
	base := lu.Config{N: s.N(), R: s.scale(324), Nodes: 8, Pipelined: true}
	t := &Table{
		Title:  fmt.Sprintf("Flow-control window sweep — LU %dx%d r=%d, pipelined, 8 nodes", base.N, base.N, base.R),
		Header: []string{"window", "predicted[s]", "vs unbounded"},
	}
	windows := []int{0, 1, 2, 4, 8, 16, 32, 64} // 0 = unbounded, the baseline
	secs, err := inParallel(len(windows), func(i int) (float64, error) {
		cfg := base
		cfg.Window = windows[i]
		sec, err := predictAnalytic(cfg, simNetParams(), simCPUParams())
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", windows[i], err)
		}
		return sec, nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("unbounded", f1(secs[0]), "-")
	for i, sec := range secs[1:] {
		t.Add(fmt.Sprintf("%d", windows[i+1]), f1(sec), pct(sec/secs[0]-1))
	}
	return t, nil
}
