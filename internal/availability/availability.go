// Package availability models time-varying compute-node capacity: the
// cluster's node pool is no longer a constant but a timeline driven by
// maintenance windows, stochastic failure/repair processes, spot-style
// preemption with reclaim notice, desktop-grid churn, or the replay of a
// recorded availability trace.
//
// The package is a pure generator: a Spec (the declarative, JSON-embedded
// form used by scenario files) yields a Timeline, a cursor over sorted
// Changes — absolute capacity steps with optional advance notice — that
// generates each change only when it is pulled. It consumes randomness
// only from a forked internal/rng stream, all of it forked up front, so a
// timeline is a deterministic function of (spec, nodes, seed) regardless
// of where, when or how far it is pulled; Generate drains one into a
// []Change. The cluster simulator pulls the changes as its clock advances;
// this package knows nothing about jobs or schedulers.
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
	"math"
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
	// (reclaim notice); 0 means the drop is abrupt. Ignored for rises. A
	// timeline gives every drop the same notice (Timeline.NoticeS).
	NoticeS float64
}

// DefaultHorizonS bounds stochastic event generation when a spec does not
// set its own horizon: one simulated day.
const DefaultHorizonS = 86400

// maxChanges guards against runaway parameterizations (sub-second MTTF on
// a large cluster over a long horizon, or a maintenance period of
// milliseconds) producing timelines that dwarf the workload they perturb:
// a timeline pulled past this many raw events fails with an error naming
// the process (so Generate fails for a spec that has more before its
// horizon, and a run only if it pulls that far).
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
	// NoticeS is the advance warning attached to every capacity drop of
	// maintenance, spot and trace (failures and churn drop without one).
	// 0 means abrupt: running work on reclaimed nodes is lost per the
	// reconfiguration-cost model.
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
// and generates no changes (the fixed-pool degenerate case). A NaN or
// infinite value in any float field is rejected by its JSON key, used by
// the process or not: NaN passes every range check (v <= 0 is false).
func (s *Spec) Validate() error {
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"horizon_s", s.HorizonS}, {"notice_s", s.NoticeS}, {"start_s", s.StartS},
		{"period_s", s.PeriodS}, {"duration_s", s.DurationS}, {"mttf_s", s.MTTFS},
		{"mttr_s", s.MTTRS}, {"shape", s.Shape}, {"reclaim_mean_s", s.ReclaimMeanS},
		{"restore_mean_s", s.RestoreMeanS}, {"mean_on_s", s.MeanOnS}, {"mean_off_s", s.MeanOffS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s is %g, not a finite number", f.key, f.v)
		}
	}
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
	if (s.Process == "failures" || s.Process == "churn") && s.NoticeS > 0 {
		return fmt.Errorf("%s drops are abrupt: notice_s %g must be 0", s.Process, s.NoticeS)
	}
	return nil
}

// transition is an un-normalized raw event before folding: either a delta
// on the running node count or an absolute capacity step. Every process
// yields its transitions ordered by at, ties in the order a stable sort of
// the process's draw order would leave them.
type transition struct {
	at    float64
	delta int
	abs   int
	isAbs bool
}

// The kinds of Timeline: one per process (failures and churn share the
// per-node one).
const (
	kindNone = iota
	kindMaintenance
	kindPerNode
	kindSpot
	kindTrace
)

// Timeline is a capacity timeline as a cursor: Next yields the folded
// changes in order, generating each only when it is pulled, so a run that
// ends early never draws the rest of its horizon. Spec.Timeline builds
// one; Spec.Generate drains one.
type Timeline struct {
	spec          Spec // validated
	kind          int
	nodes, minCap int
	// notice is what every drop carries: notice_s for the processes that
	// announce drops, 0 for failures and churn.
	notice float64

	// The incremental fold: head is the next raw transition (valid while
	// more), level the running node count, last the capacity of the last
	// change yielded, pulled the raw transitions pulled so far (the
	// maxChanges budget) and err the budget's verdict.
	head        transition
	more        bool
	level, last int
	pulled      int
	err         error

	// maintenance: the instant of the current window, and whether its
	// restore is still owed.
	winAt float64
	winUp bool
	// failures and churn: one renewal process per node in a binary
	// min-heap keyed (at, node) — the order a stable sort of the node-major
	// draw order leaves the transitions in.
	heap             []nodeState
	upMean, downMean float64
	weibull          bool
	// spot: its one fork and the resumable reclaim loop.
	src  rng.Source
	spot spotCursor
	// trace: the points read once, and the next one's index.
	points []trace.CapacityPoint
	pos    int
}

// nodeState is one failures/churn node's renewal process: its stream, the
// instant of its next transition, and whether that transition takes the
// node down.
type nodeState struct {
	src  rng.Source
	at   float64
	down bool
	node int32
}

func (a *nodeState) before(b *nodeState) bool {
	return a.at < b.at || a.at == b.at && a.node < b.node
}

// Timeline validates the spec and returns its timeline for a cluster with
// the given full pool size as a cursor. It consumes src up front exactly
// as Generate does — failures and churn fork every node (churn draws each
// node's starting state from its fork), spot forks once, maintenance and
// trace take nothing — so the changes yielded do not depend on how far or
// in what steps the timeline is pulled. A trace file is read here, once.
func (s Spec) Timeline(nodes int, src *rng.Source) (*Timeline, error) {
	t := new(Timeline)
	if err := t.init(s, nodes, src); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Timeline) init(s Spec, nodes int, src *rng.Source) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("availability: %w", err)
	}
	if nodes <= 0 {
		return fmt.Errorf("availability: need nodes > 0")
	}
	*t = Timeline{spec: s, nodes: nodes, minCap: min(s.MinCapacity, nodes), level: nodes, last: nodes}
	switch s.Process {
	case "", "none":
		return nil
	case "maintenance":
		t.kind, t.winAt, t.notice = kindMaintenance, s.StartS, s.NoticeS
	case "failures", "churn":
		t.initPerNode(src, s.Process == "churn")
	case "spot":
		t.kind, t.src, t.notice = kindSpot, *src.Fork(), s.NoticeS
		t.spot.pending = make([]float64, 0, 16)
	case "trace":
		points, err := s.readTrace()
		if err != nil {
			return err
		}
		t.kind, t.points, t.notice = kindTrace, points, s.NoticeS
	}
	t.pull()
	return nil
}

// initPerNode forks every node's stream in node order and heaps each
// node's first transition. Failures start every node up and draw TTF from
// the configured law; churn starts a node in its stationary state (one
// draw from its fork) and is purely exponential.
func (t *Timeline) initPerNode(src *rng.Source, churn bool) {
	t.kind = kindPerNode
	t.upMean, t.downMean = t.spec.MTTFS, t.spec.MTTRS
	if churn {
		t.upMean, t.downMean = t.spec.MeanOnS, t.spec.MeanOffS
	}
	t.weibull = !churn && t.spec.Dist == "weibull"
	t.heap = make([]nodeState, 0, t.nodes)
	for i := 0; i < t.nodes; i++ {
		n := nodeState{src: *src.Fork(), node: int32(i)}
		if churn && !(n.src.Float64() < t.upMean/(t.upMean+t.downMean)) {
			n.down = true // starts offline: a drop at t=0
		} else if !t.renew(&n, true) {
			continue
		}
		t.heap = append(t.heap, n)
	}
	for k := len(t.heap)/2 - 1; k >= 0; k-- {
		siftDown(t.heap, k, (*nodeState).before)
	}
}

// renew moves node n, up or not, past its current instant: while that
// lies before the horizon it draws the dwell in the current state and
// sets n to the transition ending it. It reports whether that transition
// lies before the horizon.
func (t *Timeline) renew(n *nodeState, up bool) bool {
	if !(n.at < t.spec.HorizonS) {
		return false
	}
	var dwell float64
	switch {
	case !up:
		dwell = n.src.Exp(t.downMean)
	case t.weibull:
		dwell = n.src.Weibull(t.upMean, t.spec.Shape)
	default:
		dwell = n.src.Exp(t.upMean)
	}
	n.at += dwell
	n.down = up
	return !(n.at >= t.spec.HorizonS)
}

// NoticeS is the notice every drop of the timeline carries: notice_s for
// the processes that announce drops, 0 for failures and churn. Rises
// carry none. A consumer that has pulled a change at instant a has seen
// every window opening before a − NoticeS.
func (t *Timeline) NoticeS() float64 { return t.notice }

// Next yields the timeline's next change: it folds every raw transition at
// the next raw instant into the running node count, clamps it to
// [MinCapacity, nodes] and skips the instant if the clamped capacity does
// not change. ok is false once the timeline is exhausted; err is the
// budget's error once more than maxChanges raw transitions were pulled.
func (t *Timeline) Next() (c Change, ok bool, err error) {
	for t.more {
		at := t.head.at
		for {
			if t.head.isAbs {
				t.level = t.head.abs
			} else {
				t.level += t.head.delta
			}
			t.pull()
			if !t.more || t.head.at != at {
				break
			}
		}
		if t.err != nil {
			break
		}
		capacity := min(max(t.level, t.minCap), t.nodes)
		if capacity == t.last {
			continue
		}
		c = Change{At: at, Capacity: capacity}
		if capacity < t.last {
			c.NoticeS = t.notice
		}
		t.last = capacity
		return c, true, nil
	}
	return Change{}, false, t.err
}

// pull advances head to the process's next raw transition, charging it to
// the budget.
func (t *Timeline) pull() {
	t.head, t.more = t.raw()
	if t.more {
		if t.pulled++; t.pulled > maxChanges {
			t.err = fmt.Errorf("availability: %s process exceeds %d events before horizon %gs", t.spec.Process, maxChanges, t.spec.HorizonS)
			t.more = false
		}
	}
}

// raw yields the process's next raw transition.
func (t *Timeline) raw() (transition, bool) {
	s := &t.spec
	switch t.kind {
	case kindMaintenance:
		// Windows of DurationS every PeriodS from StartS, each a drop and
		// its restore. A window straddling the horizon never restores:
		// like every other process, nothing is emitted at or past HorizonS.
		if t.winUp {
			at := t.winAt + s.DurationS
			t.winUp = false
			t.winAt += s.PeriodS
			return transition{at: at, delta: s.NodesDown}, true
		}
		if !(t.winAt < s.HorizonS) {
			return transition{}, false
		}
		tr := transition{at: t.winAt, delta: -s.NodesDown}
		if t.winAt+s.DurationS < s.HorizonS {
			t.winUp = true
		} else {
			t.winAt += s.PeriodS
		}
		return tr, true
	case kindPerNode:
		if len(t.heap) == 0 {
			return transition{}, false
		}
		n := &t.heap[0]
		tr := transition{at: n.at, delta: 1}
		if n.down {
			tr.delta = -1
		}
		if !t.renew(n, !n.down) {
			last := len(t.heap) - 1
			t.heap[0] = t.heap[last]
			t.heap = t.heap[:last]
		}
		siftDown(t.heap, 0, (*nodeState).before)
		return tr, true
	case kindSpot:
		return t.spot.next(s, t.src.Exp)
	case kindTrace:
		if t.pos == len(t.points) {
			return transition{}, false
		}
		p := t.points[t.pos]
		t.pos++
		return transition{at: p.T, abs: p.Capacity, isAbs: true}, true
	}
	return transition{}, false
}

// spotCursor is spot's reclaim loop made resumable: reclaims are drawn in
// time order, each followed by the draw of its restore. Pending restores
// wait in a min-heap by instant and are yielded once no earlier reclaim
// can follow; a restore drawn before a reclaim at the same instant is
// yielded first, as it was drawn first. Restores at one instant are
// identical transitions, so their order among themselves needs no tie
// rule.
type spotCursor struct {
	// t is the instant of the last reclaim drawn; drawn says it is not
	// yet yielded, ended that it fell at or past the horizon.
	t            float64
	drawn, ended bool
	// pending is a min-heap of the instants of restores not yet yielded.
	pending []float64
}

func earlier(a, b *float64) bool { return *a < *b }

func (c *spotCursor) next(s *Spec, exp func(mean float64) float64) (transition, bool) {
	if !c.drawn && !c.ended {
		c.t += exp(s.ReclaimMeanS)
		c.ended = c.t >= s.HorizonS
		c.drawn = !c.ended
	}
	if len(c.pending) > 0 && (c.ended || c.pending[0] <= c.t) {
		tr := transition{at: c.pending[0], delta: s.ReclaimNodes}
		last := len(c.pending) - 1
		c.pending[0] = c.pending[last]
		c.pending = c.pending[:last]
		siftDown(c.pending, 0, earlier)
		return tr, true
	}
	if c.ended {
		return transition{}, false
	}
	c.drawn = false
	tr := transition{at: c.t, delta: -s.ReclaimNodes}
	if s.RestoreMeanS > 0 {
		if back := c.t + exp(s.RestoreMeanS); back < s.HorizonS {
			c.pending = append(c.pending, back)
			siftUp(c.pending, len(c.pending)-1, earlier)
		}
	}
	return tr, true
}

// siftDown moves h[k] down to restore the binary min-heap order of h
// under less.
func siftDown[T any](h []T, k int, less func(a, b *T) bool) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(&h[c+1], &h[c]) {
			c++
		}
		if !less(&h[c], &h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// siftUp moves h[k] up to restore the binary min-heap order of h under
// less.
func siftUp[T any](h []T, k int, less func(a, b *T) bool) {
	for k > 0 {
		p := (k - 1) / 2
		if !less(&h[k], &h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

// Generate expands the spec into the sorted capacity timeline of a
// cluster with the given full pool size, consuming randomness only from
// src: its Timeline drained to the horizon. Equal (spec, nodes, src state)
// produce identical timelines; the deterministic processes ignore src
// entirely. The returned capacities always lie in [MinCapacity, nodes]
// and successive entries differ.
func (s Spec) Generate(nodes int, src *rng.Source) ([]Change, error) {
	var t Timeline
	if err := t.init(s, nodes, src); err != nil {
		return nil, err
	}
	if t.kind == kindNone {
		return nil, nil
	}
	out := make([]Change, 0, t.expected())
	for {
		c, ok, err := t.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, c)
	}
}

// expected sizes a drained timeline for about the process's mean count of
// raw events over the horizon, so a typical run never regrows it; a
// runaway spec is capped at the budget.
func (t *Timeline) expected() int {
	s := &t.spec
	var n float64
	switch t.kind {
	case kindMaintenance:
		n = 2 * (s.HorizonS - s.StartS) / s.PeriodS
	case kindPerNode:
		n = float64(t.nodes) * 2 * s.HorizonS / (t.upMean + t.downMean)
	case kindSpot:
		n = s.HorizonS / s.ReclaimMeanS
		if s.RestoreMeanS > 0 {
			n *= 2
		}
	case kindTrace:
		n = float64(len(t.points))
	}
	switch {
	case !(n > 0): // NaN parameters, or nothing before the horizon
		return 16
	case n >= maxChanges:
		return maxChanges
	}
	return int(n*1.1) + 16
}

// readTrace reads the trace process's t_s,capacity points.
func (s Spec) readTrace() ([]trace.CapacityPoint, error) {
	path := s.Path
	if !filepath.IsAbs(path) && s.Dir != "" {
		path = filepath.Join(s.Dir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("availability: %w", err)
	}
	defer f.Close()
	return trace.ReadCapacity(f)
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
		integral += float64(float64(level) * (c.At - prev))
		level = c.Capacity
		prev = c.At
	}
	integral += float64(float64(level) * (horizon - prev))
	return integral / horizon
}
