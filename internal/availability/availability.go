// Package availability models time-varying compute-node capacity: the
// cluster's node pool is no longer a constant but a timeline driven by
// maintenance windows, stochastic failure/repair processes, spot-style
// preemption with reclaim notice, desktop-grid churn, or the replay of a
// recorded availability trace.
//
// The package is a pure generator: a Spec (the declarative, JSON-embedded
// form used by scenario files) expands into a sorted []Change — absolute
// capacity steps with optional advance notice — consuming randomness only
// from a forked internal/rng stream, so a timeline is a deterministic
// function of (spec, nodes, seed) regardless of where or when it is
// generated. The cluster simulator consumes the changes through its event
// queue; this package knows nothing about jobs or schedulers.
//
// Supported processes:
//
//   - maintenance — deterministic periodic windows taking a fixed number
//     of nodes down (HPC drain/patch cycles).
//   - failures — per-node alternating renewal: exponential or Weibull
//     time-to-failure, exponential repair (classic reliability model;
//     Weibull shape < 1 gives infant mortality, > 1 wear-out).
//   - spot — Poisson reclaim events with configurable notice, each taking
//     a block of nodes; reclaimed capacity returns after an exponential
//     replacement delay (cloud spot/preemptible instances).
//   - churn — per-node stationary on/off alternation with exponential
//     sojourns, nodes starting online with the stationary probability
//     (desktop-grid volunteers).
//   - trace — replay of a t_s,capacity CSV (trace.ReadCapacity format)
//     recorded from a real system.
package availability

import (
	"fmt"
	"os"
	"path/filepath"

	"dpsim/internal/rng"
	"dpsim/internal/trace"
)

// Change is one step of the capacity timeline: from instant At on, the
// cluster has Capacity usable nodes. Changes are sorted by At with
// strictly changing capacities.
type Change struct {
	// At is the instant the new capacity takes effect, in seconds.
	At float64
	// Capacity is the absolute usable-node count from At on.
	Capacity int
	// NoticeS is the advance warning announced before a capacity drop
	// (reclaim notice); 0 means the drop is abrupt. Ignored for rises.
	NoticeS float64
}

// DefaultHorizonS bounds stochastic event generation when a spec does not
// set its own horizon: one simulated day.
const DefaultHorizonS = 86400

// maxChanges guards against runaway parameterizations (sub-second MTTF on
// a large cluster over a long horizon, or a maintenance period of
// milliseconds) producing timelines that dwarf the workload they perturb:
// a process generating more raw events than this before its horizon
// fails with the error of Spec.budget.
const maxChanges = 1 << 20

// Spec declares one availability process. It is the JSON schema embedded
// in scenario files; exactly the fields of the selected Process are used.
type Spec struct {
	// Process is "maintenance", "failures", "spot", "churn" or "trace";
	// "none" (or empty) is the fixed-pool baseline generating no changes.
	Process string `json:"process"`
	// HorizonS bounds event generation (default DefaultHorizonS); the
	// capacity holds at its last value afterwards.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// MinCapacity floors the usable capacity (default 1): the pool never
	// drops below this many nodes no matter what the process generates.
	MinCapacity int `json:"min_capacity,omitempty"`
	// NoticeS is the advance warning attached to capacity drops
	// (maintenance shutdowns, spot reclaims). 0 means abrupt: running
	// work on reclaimed nodes is lost per the reconfiguration-cost model.
	NoticeS float64 `json:"notice_s,omitempty"`

	// maintenance: windows of DurationS every PeriodS starting at StartS,
	// each taking NodesDown nodes offline.
	StartS    float64 `json:"start_s,omitempty"`
	PeriodS   float64 `json:"period_s,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	NodesDown int     `json:"nodes_down,omitempty"`

	// failures: per-node mean time to failure and repair; Dist selects
	// the TTF law, "exp" (default) or "weibull" with the given Shape.
	MTTFS float64 `json:"mttf_s,omitempty"`
	MTTRS float64 `json:"mttr_s,omitempty"`
	Dist  string  `json:"dist,omitempty"`
	Shape float64 `json:"shape,omitempty"`

	// spot: Poisson reclaims every ReclaimMeanS on average, each taking
	// ReclaimNodes nodes (default 1); capacity returns after an
	// exponential delay of mean RestoreMeanS (0: it never returns).
	ReclaimMeanS float64 `json:"reclaim_mean_s,omitempty"`
	ReclaimNodes int     `json:"reclaim_nodes,omitempty"`
	RestoreMeanS float64 `json:"restore_mean_s,omitempty"`

	// churn: per-node exponential online/offline sojourn means; nodes
	// start online with probability MeanOnS/(MeanOnS+MeanOffS).
	MeanOnS  float64 `json:"mean_on_s,omitempty"`
	MeanOffS float64 `json:"mean_off_s,omitempty"`

	// trace: path to a t_s,capacity CSV, resolved against Dir when
	// relative.
	Path string `json:"path,omitempty"`

	// Dir resolves a relative trace Path (set by the scenario loader to
	// the scenario file's directory); not part of the JSON schema.
	Dir string `json:"-"`
}

// Label names the process for reports and CSV columns.
func (s Spec) Label() string {
	switch s.Process {
	case "", "none":
		return "none"
	case "failures":
		if s.Dist == "weibull" {
			return "failures:weibull"
		}
		return "failures"
	case "trace":
		if s.Path != "" {
			return "trace:" + filepath.Base(s.Path)
		}
	}
	return s.Process
}

// Validate checks the spec and fills defaults. An empty Process is valid
// and generates no changes (the fixed-pool degenerate case).
func (s *Spec) Validate() error {
	if s.HorizonS < 0 {
		return fmt.Errorf("negative horizon_s")
	}
	if s.HorizonS == 0 {
		s.HorizonS = DefaultHorizonS
	}
	if s.MinCapacity < 0 {
		return fmt.Errorf("negative min_capacity")
	}
	if s.MinCapacity == 0 {
		s.MinCapacity = 1
	}
	if s.NoticeS < 0 {
		return fmt.Errorf("negative notice_s")
	}
	switch s.Process {
	case "", "none":
		// No availability dynamics.
	case "maintenance":
		if s.PeriodS <= 0 || s.DurationS <= 0 {
			return fmt.Errorf("maintenance needs period_s and duration_s > 0")
		}
		if s.DurationS >= s.PeriodS {
			return fmt.Errorf("maintenance duration_s %g must be < period_s %g", s.DurationS, s.PeriodS)
		}
		if s.NodesDown <= 0 {
			return fmt.Errorf("maintenance needs nodes_down > 0")
		}
		if s.StartS < 0 {
			return fmt.Errorf("negative start_s")
		}
	case "failures":
		if s.MTTFS <= 0 || s.MTTRS <= 0 {
			return fmt.Errorf("failures need mttf_s and mttr_s > 0")
		}
		switch s.Dist {
		case "", "exp":
		case "weibull":
			if s.Shape == 0 {
				s.Shape = 1.5
			}
			if s.Shape <= 0 {
				return fmt.Errorf("weibull shape must be > 0")
			}
		default:
			return fmt.Errorf("unknown failure dist %q (want exp or weibull)", s.Dist)
		}
	case "spot":
		if s.ReclaimMeanS <= 0 {
			return fmt.Errorf("spot needs reclaim_mean_s > 0")
		}
		if s.ReclaimNodes < 0 || s.RestoreMeanS < 0 {
			return fmt.Errorf("spot reclaim_nodes and restore_mean_s must be >= 0")
		}
		if s.ReclaimNodes == 0 {
			s.ReclaimNodes = 1
		}
	case "churn":
		if s.MeanOnS <= 0 || s.MeanOffS <= 0 {
			return fmt.Errorf("churn needs mean_on_s and mean_off_s > 0")
		}
	case "trace":
		if s.Path == "" {
			return fmt.Errorf("trace needs a path")
		}
	default:
		return fmt.Errorf("unknown availability process %q", s.Process)
	}
	return nil
}

// transition is an un-normalized raw event before folding: either a delta
// on the running node count or an absolute capacity step. Every process
// emits its transitions ordered by at, ties in the order a stable sort of
// the process's draw order would leave them.
type transition struct {
	at     float64
	delta  int
	abs    int
	isAbs  bool
	notice float64
}

// Generate expands the spec into the sorted capacity timeline of a
// cluster with the given full pool size, consuming randomness only from
// src. Equal (spec, nodes, src state) produce identical timelines; the
// deterministic processes ignore src entirely. The returned capacities
// always lie in [MinCapacity, nodes] and successive entries differ.
func (s Spec) Generate(nodes int, src *rng.Source) ([]Change, error) {
	spec := s // validate on a copy so Generate is usable standalone
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("availability: %w", err)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("availability: need nodes > 0")
	}
	var raw []transition
	var err error
	switch spec.Process {
	case "", "none":
		return nil, nil
	case "maintenance":
		raw, err = spec.maintenance()
	case "failures":
		raw, err = spec.perNode(nodes, src, false)
	case "churn":
		raw, err = spec.perNode(nodes, src, true)
	case "spot":
		raw, err = spec.spot(src)
	case "trace":
		raw, err = spec.traceReplay()
	}
	if err != nil {
		return nil, err
	}
	return fold(raw, nodes, spec.MinCapacity), nil
}

// budget fails a process that has generated n raw events once n passes
// maxChanges.
func (s Spec) budget(n int) error {
	if n > maxChanges {
		return fmt.Errorf("availability: %s process exceeds %d events before horizon %gs", s.Process, maxChanges, s.HorizonS)
	}
	return nil
}

// expected sizes a raw timeline for about n events, the process's mean
// count over the horizon, so a typical run never regrows it; a runaway
// spec is capped at the budget.
func expected(n float64) int {
	switch {
	case !(n > 0): // NaN parameters, or nothing before the horizon
		return 16
	case n >= maxChanges:
		return maxChanges
	}
	return int(n*1.1) + 16
}

func (s Spec) maintenance() ([]transition, error) {
	out := make([]transition, 0, expected(2*(s.HorizonS-s.StartS)/s.PeriodS))
	for t := s.StartS; t < s.HorizonS; t += s.PeriodS {
		out = append(out, transition{at: t, delta: -s.NodesDown, notice: s.NoticeS})
		// A window straddling the horizon never restores: like every
		// other process, nothing is emitted at or past HorizonS.
		if t+s.DurationS < s.HorizonS {
			out = append(out, transition{at: t + s.DurationS, delta: s.NodesDown})
		}
		if err := s.budget(len(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// perNode generates an alternating up/down renewal process per node and
// merges the transitions. Failures start every node up and draw TTF from
// the configured law; churn starts nodes in their stationary state and is
// purely exponential. Each node forks its own stream so a node's timeline
// is independent of the cluster size ordering. Each node's run is ordered,
// so a k-way merge keyed (at, node) orders the whole timeline.
func (s Spec) perNode(nodes int, src *rng.Source, churn bool) ([]transition, error) {
	upMean, downMean := s.MTTFS, s.MTTRS
	if churn {
		upMean, downMean = s.MeanOnS, s.MeanOffS
	}
	// runs holds the nodes' runs back to back; node i's is
	// runs[ends[i-1]:ends[i]]. A node cycles up and down once per
	// upMean+downMean on average.
	runs := make([]transition, 0, expected(float64(nodes)*2*s.HorizonS/(upMean+downMean)))
	ends := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		r := src.Fork()
		up := true
		if churn {
			up = r.Float64() < upMean/(upMean+downMean)
			if !up {
				runs = append(runs, transition{at: 0, delta: -1})
			}
		}
		t := 0.0
		for t < s.HorizonS {
			var dwell float64
			if up {
				if !churn && s.Dist == "weibull" {
					dwell = r.Weibull(upMean, s.Shape)
				} else {
					dwell = r.Exp(upMean)
				}
			} else {
				dwell = r.Exp(downMean)
			}
			t += dwell
			if t >= s.HorizonS {
				break
			}
			d := 1
			if up {
				d = -1
			}
			runs = append(runs, transition{at: t, delta: d, notice: 0})
			up = !up
			if err := s.budget(len(runs)); err != nil {
				return nil, err
			}
		}
		ends[i] = len(runs)
	}
	return mergeRuns(runs, ends), nil
}

// mergeRuns merges the back-to-back ordered runs of runs (run i ends at
// ends[i]) into one slice ordered by (at, run, position in run), the
// order a stable sort by at leaves them in. heads is a binary min-heap
// of the runs not yet exhausted; next[i] is run i's next position.
func mergeRuns(runs []transition, ends []int) []transition {
	scratch := make([]int, 2*len(ends))
	next, heads := scratch[:len(ends)], scratch[len(ends):len(ends)]
	for i, end := range ends {
		if i > 0 {
			next[i] = ends[i-1]
		}
		if next[i] < end {
			heads = append(heads, i)
		}
	}
	less := func(a, b int) bool {
		ta, tb := runs[next[a]].at, runs[next[b]].at
		return ta < tb || ta == tb && a < b
	}
	for k := len(heads)/2 - 1; k >= 0; k-- {
		siftDown(heads, k, less)
	}
	out := make([]transition, 0, len(runs))
	for len(heads) > 0 {
		i := heads[0]
		out = append(out, runs[next[i]])
		if next[i]++; next[i] == ends[i] {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0, less)
	}
	return out
}

// siftDown moves h[k] down to restore the binary min-heap order of h
// under less.
func siftDown[T any](h []T, k int, less func(a, b T) bool) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// siftUp moves h[k] up to restore the binary min-heap order of h under
// less.
func siftUp[T any](h []T, k int, less func(a, b T) bool) {
	for k > 0 {
		p := (k - 1) / 2
		if !less(h[k], h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (s Spec) spot(src *rng.Source) ([]transition, error) {
	return s.spotTimeline(src.Fork().Exp)
}

// spotTimeline draws reclaims in time order from exp, each followed by
// the draw of its restore. Pending restores wait in a min-heap by instant
// and are emitted once no earlier reclaim can follow; a restore drawn
// before a reclaim at the same instant is emitted first, as it was drawn
// first. Restores at one instant are identical transitions, so their
// order among themselves needs no tie rule.
func (s Spec) spotTimeline(exp func(mean float64) float64) ([]transition, error) {
	n := s.HorizonS / s.ReclaimMeanS
	if s.RestoreMeanS > 0 {
		n *= 2
	}
	out := make([]transition, 0, expected(n))
	// pending is a min-heap of the instants of restores not yet emitted.
	pending := make([]float64, 0, 16)
	earlier := func(a, b float64) bool { return a < b }
	emitRestore := func() {
		out = append(out, transition{at: pending[0], delta: s.ReclaimNodes})
		last := len(pending) - 1
		pending[0] = pending[last]
		pending = pending[:last]
		siftDown(pending, 0, earlier)
	}
	t := 0.0
	for {
		t += exp(s.ReclaimMeanS)
		if t >= s.HorizonS {
			break
		}
		for len(pending) > 0 && pending[0] <= t {
			emitRestore()
		}
		out = append(out, transition{at: t, delta: -s.ReclaimNodes, notice: s.NoticeS})
		if s.RestoreMeanS > 0 {
			if back := t + exp(s.RestoreMeanS); back < s.HorizonS {
				pending = append(pending, back)
				siftUp(pending, len(pending)-1, earlier)
			}
		}
		if err := s.budget(len(out) + len(pending)); err != nil {
			return nil, err
		}
	}
	for len(pending) > 0 {
		emitRestore()
	}
	return out, nil
}

func (s Spec) traceReplay() ([]transition, error) {
	path := s.Path
	if !filepath.IsAbs(path) && s.Dir != "" {
		path = filepath.Join(s.Dir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("availability: %w", err)
	}
	defer f.Close()
	points, err := trace.ReadCapacity(f)
	if err != nil {
		return nil, err
	}
	out := make([]transition, len(points))
	for i, p := range points {
		out[i] = transition{at: p.T, abs: p.Capacity, isAbs: true, notice: s.NoticeS}
	}
	return out, nil
}

// fold accumulates raw transitions, already ordered by at, into an
// absolute capacity level, clamps to [minCap, nodes], coalesces
// same-instant events, and drops steps that do not change the clamped
// capacity.
func fold(raw []transition, nodes, minCap int) []Change {
	if minCap > nodes {
		minCap = nodes
	}
	clamp := func(v int) int {
		if v < minCap {
			return minCap
		}
		if v > nodes {
			return nodes
		}
		return v
	}
	out := make([]Change, 0, len(raw))
	level := nodes
	last := nodes
	for i := 0; i < len(raw); {
		at := raw[i].at
		notice := 0.0
		for ; i < len(raw) && raw[i].at == at; i++ {
			if raw[i].isAbs {
				level = raw[i].abs
			} else {
				level += raw[i].delta
			}
			if raw[i].notice > notice {
				notice = raw[i].notice
			}
		}
		c := clamp(level)
		if c == last {
			continue
		}
		if c > last {
			notice = 0 // notice only matters for drops
		}
		out = append(out, Change{At: at, Capacity: c, NoticeS: notice})
		last = c
	}
	return out
}

// MeanCapacity integrates the timeline's capacity over [0, horizon] and
// returns the time-average, for reporting and sanity checks. The full
// pool size is the level before the first change.
func MeanCapacity(changes []Change, nodes int, horizon float64) float64 {
	if horizon <= 0 {
		return float64(nodes)
	}
	integral := 0.0
	level := nodes
	prev := 0.0
	for _, c := range changes {
		if c.At >= horizon {
			break
		}
		integral += float64(level) * (c.At - prev)
		level = c.Capacity
		prev = c.At
	}
	integral += float64(level) * (horizon - prev)
	return integral / horizon
}
