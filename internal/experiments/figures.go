package experiments

import (
	"fmt"

	"dpsim/internal/lu"
	"dpsim/internal/metrics"
)

// variant describes one flow-graph modification combination.
type variant struct {
	label string
	pm    bool
	p     bool
	fc    bool
}

// paperVariants are the bars of Figs. 8 and 9.
var paperVariants = []variant{
	{label: "PM", pm: true},
	{label: "P", p: true},
	{label: "P+PM", p: true, pm: true},
	{label: "P+FC", p: true, fc: true},
	{label: "P+PM+FC", p: true, pm: true, fc: true},
}

// apply returns cfg with the variant's modifications.
func (v variant) apply(cfg lu.Config) lu.Config {
	cfg.Pipelined = v.p
	cfg.ParallelMult = v.pm
	if v.fc {
		threads := cfg.Threads
		if threads == 0 {
			threads = cfg.N / cfg.R
		}
		cfg.Window = 2 * threads
	}
	return cfg
}

// improvementTable runs ref plus each config and tabulates the relative
// performance improvement (paper metric: reference time over variant
// time), measured and predicted.
func improvementTable(title string, ref lu.Config, rows []config, s Setup) (*Table, []metrics.ErrorSample, error) {
	runs, err := measureAll(append([]config{{"ref", ref}}, rows...), s)
	if err != nil {
		return nil, nil, err
	}
	refRun := runs[0]
	t := &Table{
		Title:  title,
		Header: []string{"variant", "measured[s]", "predicted[s]", "improv(meas)", "improv(pred)", "pred.err"},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("reference: basic graph r=%d, measured %.1fs, predicted %.1fs",
		ref.R, refRun.MeasuredMean(), refRun.Predicted))
	samples := refRun.Samples()
	for _, run := range runs[1:] {
		m := run.MeasuredMean()
		imp := refRun.MeasuredMean() / m
		impPred := refRun.Predicted / run.Predicted
		errPct := (run.Predicted - m) / m
		t.Add(run.Label, f1(m), f1(run.Predicted), f2(imp), f2(impPred), pct(errPct))
		samples = append(samples, run.Samples()...)
	}
	return t, samples, nil
}

// Fig8 regenerates Fig. 8: impact of the modifications at 4 nodes with the
// coarse reference decomposition, against simply refining the granularity.
func Fig8(s Setup) (*Table, []metrics.ErrorSample, error) {
	s.fill()
	n := s.N()
	var refR int
	var granularities []int
	if s.Quick {
		refR = 324
		granularities = []int{162, 108, 81, 54}
	} else {
		refR = 648
		granularities = []int{324, 216, 162, 108}
	}
	ref := lu.Config{N: n, R: refR, Nodes: 4}
	var rows []config
	for _, v := range paperVariants {
		rows = append(rows, config{v.label, v.apply(ref)})
	}
	for _, r := range granularities {
		rows = append(rows, config{fmt.Sprintf("r=%d", r), lu.Config{N: n, R: r, Nodes: 4}})
	}
	return improvementTable("Fig. 8 — impact of modifications on running time (4 nodes)", ref, rows, s)
}

// Fig9 regenerates Fig. 9: the same modifications against the well-tuned
// reference (two column blocks per node), where PM hurts.
func Fig9(s Setup) (*Table, []metrics.ErrorSample, error) {
	s.fill()
	ref := lu.Config{N: s.N(), R: s.scale(324), Nodes: 4}
	var rows []config
	for _, v := range paperVariants {
		rows = append(rows, config{v.label, v.apply(ref)})
	}
	return improvementTable("Fig. 9 — impact of modifications (4 nodes, fine granularity)", ref, rows, s)
}

// fig10Strategies are the pipelining strategies Fig. 10 crosses with the
// decomposition granularity.
var fig10Strategies = []variant{
	{label: "Basic"},
	{label: "P", p: true},
	{label: "P+FC", p: true, fc: true},
}

// fig10Configs lists Fig. 10's configurations, granularity × strategy at
// 8 nodes. The reference, the basic graph at the coarsest granularity, is
// the last granularity's Basic configuration.
func fig10Configs(s Setup) (rs []int, cfgs []config) {
	n := s.N()
	if s.Quick {
		rs = []int{54, 81, 108, 162, 216}
	} else {
		rs = []int{81, 108, 162, 216, 324}
	}
	for _, r := range rs {
		for _, v := range fig10Strategies {
			cfgs = append(cfgs, config{fmt.Sprintf("r=%d/%s", r, v.label), v.apply(lu.Config{N: n, R: r, Nodes: 8})})
		}
	}
	return rs, cfgs
}

// Fig10 regenerates Fig. 10: decomposition granularity × pipelining
// strategy at 8 nodes.
func Fig10(s Setup) (*Table, []metrics.ErrorSample, error) {
	s.fill()
	rs, cfgs := fig10Configs(s)
	runs, err := measureAll(cfgs, s)
	if err != nil {
		return nil, nil, err
	}
	// The reference runs once, as r=rs[last]/Basic; its samples also head
	// the list under their own label.
	refRun := *runs[(len(rs)-1)*len(fig10Strategies)]
	refRun.Label = "ref"
	t := &Table{
		Title:  "Fig. 10 — impact of decomposition granularity (8 nodes)",
		Header: []string{"r", "strategy", "measured[s]", "predicted[s]", "improv(meas)", "improv(pred)", "pred.err"},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("reference: basic graph r=%d, measured %.1fs", rs[len(rs)-1], refRun.MeasuredMean()))
	samples := refRun.Samples()
	for _, r := range rs { // runs are in fig10Configs order: granularity-major
		for _, v := range fig10Strategies {
			run := runs[0]
			runs = runs[1:]
			m := run.MeasuredMean()
			t.Add(fmt.Sprintf("%d", r), v.label, f1(m), f1(run.Predicted),
				f2(refRun.MeasuredMean()/m), f2(refRun.Predicted/run.Predicted),
				pct((run.Predicted-m)/m))
			samples = append(samples, run.Samples()...)
		}
	}
	return t, samples, nil
}

// removalConfigs returns the five allocation strategies of Fig. 12 (the
// first three are also Fig. 11's curves). Worker threads store one column
// block each on 4 nodes; multiplication threads live one per node, so
// removing them deallocates nodes.
func removalConfigs(s Setup) []config {
	n := s.N()
	r := s.scale(324)
	base := lu.Config{
		N: n, R: r,
		Nodes:   4,
		Threads: n / r, // 8 column blocks on 4 storage nodes
	}
	with := func(multThreads, multNodes int, rm ...lu.Removal) lu.Config {
		c := base
		c.MultThreads = multThreads
		c.MultNodes = multNodes
		c.Removals = rm
		return c
	}
	return []config{
		{"4 threads", with(4, 4)},
		{"8 threads", with(8, 8)},
		{"8 threads, kill 4 after it. 1", with(8, 8, lu.Removal{AfterIter: 1, MultThreads: 4})},
		{"8 threads, kill 4 after it. 4", with(8, 8, lu.Removal{AfterIter: 4, MultThreads: 4})},
		{"8 thr, kill 2 after it.2 + 2 after it.3", with(8, 8,
			lu.Removal{AfterIter: 2, MultThreads: 6},
			lu.Removal{AfterIter: 3, MultThreads: 4})},
	}
}

// Fig11 regenerates Fig. 11: dynamic efficiency per iteration for the
// static 8-node and 4-node allocations and the kill-4-after-iteration-1
// strategy, measured and predicted.
func Fig11(s Setup) (*Table, []metrics.ErrorSample, error) {
	s.fill()
	cfgs := removalConfigs(s)[:3]
	t := &Table{
		Title: "Fig. 11 — dynamic efficiency of LU iterations",
	}
	t.Header = []string{"iteration", "serial[s]"}
	for _, c := range cfgs {
		t.Header = append(t.Header, c.label+" (meas)", c.label+" (sim)")
	}
	runs, err := measureAll(cfgs, s)
	if err != nil {
		return nil, nil, err
	}
	var samples []metrics.ErrorSample
	for _, run := range runs {
		samples = append(samples, run.Samples()...)
	}
	blocks := cfgs[0].cfg.N / cfgs[0].cfg.R
	for k := 0; k < blocks; k++ {
		row := []string{
			fmt.Sprintf("%d", k+1),
			f1(lu.SerialWork(runs[0].Cfg.Costs, cfgs[0].cfg.N, cfgs[0].cfg.R, k).Seconds()),
		}
		for _, run := range runs {
			row = append(row, effAt(run.MeasuredIters, k), effAt(run.PredictedIters, k))
		}
		t.Add(row...)
	}
	return t, samples, nil
}

func effAt(iters []metrics.IterationStat, k int) string {
	for _, it := range iters {
		if it.Index == k {
			return pct(it.Efficiency)
		}
	}
	return "-"
}

// Fig12 regenerates Fig. 12: total running time of the dynamic
// thread-removal strategies, measured and predicted.
func Fig12(s Setup) (*Table, []metrics.ErrorSample, error) {
	s.fill()
	t := &Table{
		Title:  "Fig. 12 — running times of dynamic thread removal strategies",
		Header: []string{"strategy", "measured[s]", "predicted[s]", "pred.err", "mean efficiency"},
	}
	runs, err := measureAll(removalConfigs(s), s)
	if err != nil {
		return nil, nil, err
	}
	var samples []metrics.ErrorSample
	for _, run := range runs {
		m := run.MeasuredMean()
		t.Add(run.Label, f1(m), f1(run.Predicted), pct((run.Predicted-m)/m),
			pct(metrics.MeanEfficiency(run.MeasuredIters)))
		samples = append(samples, run.Samples()...)
	}
	return t, samples, nil
}

// Fig13 summarizes all measured/predicted pairs as the prediction-error
// histogram and accuracy bands of Fig. 13.
func Fig13(samples []metrics.ErrorSample) (*Table, string) {
	st := metrics.Stats(samples)
	t := &Table{
		Title:  "Fig. 13 — prediction error summary",
		Header: []string{"samples", "mean |err|", "max |err|", "within ±4%", "within ±6%", "within ±12%"},
	}
	t.Add(fmt.Sprintf("%d", st.N), pct(st.MeanAbs), pct(st.Max),
		pct(st.Within4Pct), pct(st.Within6Pct), pct(st.Within12Pct))
	hist := metrics.BuildHistogram(samples)
	return t, hist.Render()
}
