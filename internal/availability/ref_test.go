package availability

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dpsim/internal/rng"
)

// refGenerate is the reference copy of Generate from before the processes
// emitted ordered transitions: failures and churn append every node's run
// node after node, spot appends each restore right behind its reclaim,
// and refFold stable-sorts the lot by instant before folding the whole
// slice at once. Generate and Timeline must match it change for change
// and leave src in the same state.
func refGenerate(s Spec, nodes int, src *rng.Source) ([]Change, error) {
	spec := s
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var raw []refTransition
	switch spec.Process {
	case "", "none":
		return nil, nil
	case "maintenance":
		raw = refMaintenance(spec)
	case "failures":
		raw = refPerNode(spec, nodes, src, false)
	case "churn":
		raw = refPerNode(spec, nodes, src, true)
	case "spot":
		raw = refSpot(spec, src.Fork().Exp)
	case "trace":
		points, err := spec.readTrace()
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			raw = append(raw, refTransition{transition{at: p.T, abs: p.Capacity, isAbs: true}, spec.NoticeS})
		}
	}
	return refFold(raw, nodes, spec.MinCapacity), nil
}

// refTransition is a raw transition carrying its own notice, as each did
// before the notice became the timeline's: notice_s on the drops of
// maintenance, spot and trace.
type refTransition struct {
	transition
	notice float64
}

// refFold stable-sorts raw by instant, then accumulates it into an
// absolute capacity level, clamps to [minCap, nodes], coalesces
// same-instant events, and drops steps that do not change the clamped
// capacity. A drop carries the longest notice of its instant's
// transitions.
func refFold(raw []refTransition, nodes, minCap int) []Change {
	raw = slices.Clone(raw)
	slices.SortStableFunc(raw, func(a, b refTransition) int { return cmp.Compare(a.at, b.at) })
	minCap = min(minCap, nodes)
	out := []Change{}
	level, last := nodes, nodes
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
		c := min(max(level, minCap), nodes)
		if c == last {
			continue
		}
		if c > last {
			notice = 0
		}
		out = append(out, Change{At: at, Capacity: c, NoticeS: notice})
		last = c
	}
	return out
}

// refMaintenance is the windows loop: each window's drop, then its
// restore unless that lands at or past the horizon.
func refMaintenance(s Spec) []refTransition {
	var out []refTransition
	for t := s.StartS; t < s.HorizonS; t += s.PeriodS {
		out = append(out, refTransition{transition{at: t, delta: -s.NodesDown}, s.NoticeS})
		if t+s.DurationS < s.HorizonS {
			out = append(out, refTransition{transition: transition{at: t + s.DurationS, delta: s.NodesDown}})
		}
	}
	return out
}

// refPerNode is perNode without the merge: node-major draw order.
func refPerNode(s Spec, nodes int, src *rng.Source, churn bool) []refTransition {
	upMean, downMean := s.MTTFS, s.MTTRS
	if churn {
		upMean, downMean = s.MeanOnS, s.MeanOffS
	}
	var out []refTransition
	for i := 0; i < nodes; i++ {
		r := src.Fork()
		up := true
		if churn {
			up = r.Float64() < upMean/(upMean+downMean)
			if !up {
				out = append(out, refTransition{transition: transition{at: 0, delta: -1}})
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
			out = append(out, refTransition{transition: transition{at: t, delta: d}})
			up = !up
		}
	}
	return out
}

// refSpot is spot without the restore heap: draw order.
func refSpot(s Spec, exp func(mean float64) float64) []refTransition {
	var out []refTransition
	t := 0.0
	for {
		t += exp(s.ReclaimMeanS)
		if t >= s.HorizonS {
			return out
		}
		out = append(out, refTransition{transition{at: t, delta: -s.ReclaimNodes}, s.NoticeS})
		if s.RestoreMeanS > 0 {
			if back := t + exp(s.RestoreMeanS); back < s.HorizonS {
				out = append(out, refTransition{transition: transition{at: back, delta: s.ReclaimNodes}})
			}
		}
	}
}

// checkAgainstRef generates spec both ways from the same seed and
// requires bit-equal changes and the same next draw from src. It also
// pulls the spec's Timeline in chunks of random sizes, checking after
// construction that src is already where Generate leaves it, and requires
// the same changes, every drop carrying the Timeline's NoticeS and every
// rise none.
func checkAgainstRef(t *testing.T, spec Spec, nodes int, seed uint64) []Change {
	t.Helper()
	src, ref := rng.New(seed), rng.New(seed)
	got, err := spec.Generate(nodes, src)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	want, err := refGenerate(spec, nodes, ref)
	if err != nil {
		t.Fatalf("%+v: reference: %v", spec, err)
	}
	sameChanges(t, fmt.Sprintf("%+v on %d nodes", spec, nodes), got, want)
	next := src.Uint64()
	if b := ref.Uint64(); next != b {
		t.Fatalf("%+v on %d nodes: next draw %#x, reference %#x", spec, nodes, next, b)
	}

	pullSrc, chunks := rng.New(seed), rng.New(seed^0x5eed)
	tl, err := spec.Timeline(nodes, pullSrc)
	if err != nil {
		t.Fatalf("%+v: Timeline: %v", spec, err)
	}
	if a := pullSrc.Uint64(); a != next {
		t.Fatalf("%+v on %d nodes: Timeline left next draw %#x, Generate %#x", spec, nodes, a, next)
	}
	var pulled []Change
	for more := true; more; {
		for k := 1 + chunks.Intn(64); k > 0; k-- {
			c, ok, err := tl.Next()
			if err != nil {
				t.Fatalf("%+v: pull: %v", spec, err)
			}
			if more = ok; !ok {
				break
			}
			pulled = append(pulled, c)
		}
	}
	sameChanges(t, fmt.Sprintf("%+v on %d nodes, pulled", spec, nodes), pulled, got)
	prev := nodes
	for i, c := range got {
		want := 0.0
		if c.Capacity < prev {
			want = tl.NoticeS()
		}
		if math.Float64bits(c.NoticeS) != math.Float64bits(want) {
			t.Fatalf("%+v on %d nodes: change %d = %+v, want notice %g (timeline notice %g)", spec, nodes, i, c, want, tl.NoticeS())
		}
		prev = c.Capacity
	}
	return got
}

// sameChanges requires bit-equal change lists.
func sameChanges(t *testing.T, label string, got, want []Change) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d changes, reference %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.At) != math.Float64bits(w.At) || g.Capacity != w.Capacity ||
			math.Float64bits(g.NoticeS) != math.Float64bits(w.NoticeS) {
			t.Fatalf("%s: change %d = %+v, reference %+v", label, i, g, w)
		}
	}
}

// TestGenerateMatchesReference covers every process, with the shapes that
// put equal instants into the raw timeline: churn nodes starting down at
// t=0, spot restores landing on their own reclaim's instant (a restore
// mean so small that the delay rounds away at large t), and the fleet and
// sweep parameters the benchmark workloads use.
func TestGenerateMatchesReference(t *testing.T) {
	specs := []Spec{
		{Process: "maintenance", StartS: 200, PeriodS: 600, DurationS: 120, NodesDown: 12, NoticeS: 60, HorizonS: 20000},
		{Process: "failures", MTTFS: 400, MTTRS: 120, HorizonS: 20000},
		{Process: "failures", MTTFS: 300, MTTRS: 60, HorizonS: 8000},
		{Process: "failures", MTTFS: 2000, MTTRS: 300, Dist: "weibull", Shape: 0.7, HorizonS: 20000},
		{Process: "failures", MTTFS: 50, MTTRS: 5000, MinCapacity: 3, HorizonS: 30000},
		{Process: "churn", MeanOnS: 500, MeanOffS: 100, MinCapacity: 12, HorizonS: 20000},
		{Process: "churn", MeanOnS: 100, MeanOffS: 200, HorizonS: 5000},
		{Process: "spot", ReclaimMeanS: 150, ReclaimNodes: 6, RestoreMeanS: 200, NoticeS: 30, MinCapacity: 8, HorizonS: 20000},
		{Process: "spot", ReclaimMeanS: 150, ReclaimNodes: 4, RestoreMeanS: 200, NoticeS: 30, MinCapacity: 4, HorizonS: 8000},
		{Process: "spot", ReclaimMeanS: 5, ReclaimNodes: 2, RestoreMeanS: 1e-13, HorizonS: 1e5},
		{Process: "spot", ReclaimMeanS: 100, HorizonS: 5000},
	}
	for _, spec := range specs {
		for _, nodes := range []int{1, 7, 48} {
			for seed := uint64(1); seed <= 4; seed++ {
				checkAgainstRef(t, spec, nodes, seed)
			}
		}
	}
}

// TestSpotTiesMatchReference scripts spot's draws as small integers, so
// reclaims and restores land on equal instants in every combination (a
// restore on its own reclaim, on a later reclaim, on another restore,
// zero dwells): the restore heap must yield exactly the reference's
// stable-sort order. Continuous draws almost never tie.
func TestSpotTiesMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		spec := Spec{Process: "spot", ReclaimMeanS: 2, ReclaimNodes: 3, RestoreMeanS: 5, NoticeS: 7, HorizonS: 400}
		scripted := func() func(float64) float64 {
			r := rng.New(seed)
			return func(mean float64) float64 { return float64(r.Intn(int(mean) + 1)) }
		}
		var got []transition
		c, exp := spotCursor{}, scripted()
		for {
			tr, ok := c.next(&spec, exp)
			if !ok {
				break
			}
			got = append(got, tr)
		}
		var want []transition
		for _, tr := range refSpot(spec, scripted()) {
			want = append(want, tr.transition)
		}
		slices.SortStableFunc(want, func(a, b transition) int { return cmp.Compare(a.at, b.at) })
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: spot yielded\n%+v\nreference\n%+v", seed, got, want)
		}
	}
}

// TestPerNodeTiesMatchStableSort heaps nodes whose next transitions lie
// at small integer instants (many equal) and requires the per-node cursor
// to yield them in the stable sort's order of the node-major draw order:
// by instant, then by node. At horizon 0 every node stops after the
// transition it holds, so the instants are scripted rather than drawn.
func TestPerNodeTiesMatchStableSort(t *testing.T) {
	type yield struct {
		at   float64
		node int32
	}
	src := rng.New(9)
	for round := 0; round < 200; round++ {
		tl := Timeline{kind: kindPerNode}
		var want []yield
		for i := range 1 + src.Intn(12) {
			n := nodeState{at: float64(src.Intn(4)), node: int32(i)}
			tl.heap = append(tl.heap, n)
			want = append(want, yield{n.at, n.node})
		}
		for k := len(tl.heap)/2 - 1; k >= 0; k-- {
			siftDown(tl.heap, k, (*nodeState).before)
		}
		slices.SortStableFunc(want, func(a, b yield) int { return cmp.Compare(a.at, b.at) })
		var got []yield
		for len(tl.heap) > 0 {
			node := tl.heap[0].node
			tr, ok := tl.raw()
			if !ok {
				t.Fatalf("round %d: node %d yielded nothing", round, node)
			}
			got = append(got, yield{tr.at, node})
		}
		if _, ok := tl.raw(); ok || !slices.Equal(got, want) {
			t.Fatalf("round %d: yielded\n%+v\nstable sort\n%+v", round, got, want)
		}
	}
}

// TestTraceRepeatedInstants replays a trace whose t_s repeats: the last
// row of an instant wins, exactly as under the reference's stable sort.
func TestTraceRepeatedInstants(t *testing.T) {
	dir := t.TempDir()
	csv := "t_s,capacity\n0,6\n10,3\n10,5\n10,2\n20,8\n20,4\n30,4\n30,7\n"
	if err := os.WriteFile(filepath.Join(dir, "cap.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Process: "trace", Path: "cap.csv", Dir: dir, NoticeS: 5}
	got := checkAgainstRef(t, spec, 8, 1)
	want := []Change{{At: 0, Capacity: 6, NoticeS: 5}, {At: 10, Capacity: 2, NoticeS: 5}, {At: 20, Capacity: 4}, {At: 30, Capacity: 7}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestBudgetNamesProcess gives every stochastic and periodic process the
// same guard: a spec generating more than maxChanges raw events before
// its horizon fails with one message naming the process, instead of
// being cut short.
func TestBudgetNamesProcess(t *testing.T) {
	for _, spec := range []Spec{
		{Process: "maintenance", PeriodS: 1e-3, DurationS: 5e-4, NodesDown: 1},
		{Process: "failures", MTTFS: 1e-3, MTTRS: 1e-3},
		{Process: "churn", MeanOnS: 1e-3, MeanOffS: 1e-3},
		{Process: "spot", ReclaimMeanS: 1e-3, RestoreMeanS: 1e-3},
	} {
		_, err := spec.Generate(4, rng.New(1))
		want := spec.Process + " process exceeds 1048576 events before horizon 86400s"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", spec.Process, err, want)
		}
	}
}

// FuzzGenerate decodes its inputs into a process, its parameters, a pool
// size and a seed, and checks Generate against the reference and against
// the output contract: ordered, every capacity in [MinCapacity, nodes]
// and different from the one before. Means are drawn relative to the
// horizon, so a case generates at most a few thousand events.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(0), uint16(600), uint16(120), uint16(200), uint8(12), uint8(47), uint8(1), uint8(60), uint64(1))
	f.Add(uint8(1), uint16(400), uint16(120), uint16(0), uint8(0), uint8(31), uint8(0), uint8(0), uint64(2))
	f.Add(uint8(2), uint16(2000), uint16(300), uint16(70), uint8(0), uint8(23), uint8(2), uint8(0), uint64(3))
	f.Add(uint8(3), uint16(500), uint16(100), uint16(0), uint8(0), uint8(47), uint8(12), uint8(0), uint64(4))
	f.Add(uint8(4), uint16(150), uint16(200), uint16(0), uint8(6), uint8(47), uint8(8), uint8(30), uint64(5))
	f.Fuzz(func(t *testing.T, process uint8, a, b, c uint16, k, nodes, minCap, notice uint8, seed uint64) {
		const horizon = 5000.0
		// mean maps a parameter to [horizon/200, horizon], so a node sees
		// a few hundred transitions at most.
		mean := func(p uint16) float64 { return horizon * (1 + float64(p%200)) / 200 }
		n := 1 + int(nodes%48)
		spec := Spec{HorizonS: horizon, MinCapacity: int(minCap % 16), NoticeS: float64(notice)}
		switch process % 5 {
		case 0:
			spec.Process = "maintenance"
			spec.PeriodS = mean(a) + 1
			spec.DurationS = spec.PeriodS * float64(1+b%255) / 256
			spec.StartS = float64(c % 1000)
			spec.NodesDown = 1 + int(k%64)
		case 1, 2:
			spec.Process = "failures"
			spec.MTTFS, spec.MTTRS = mean(a), mean(b)
			if process%5 == 2 {
				spec.Dist, spec.Shape = "weibull", 0.3+float64(c%64)/16
			}
		case 3:
			spec.Process = "churn"
			spec.MeanOnS, spec.MeanOffS = mean(a), mean(b)
		case 4:
			spec.Process = "spot"
			spec.ReclaimMeanS, spec.ReclaimNodes = mean(a)/10, int(k%8)
			if c%4 != 0 {
				spec.RestoreMeanS = mean(b) / float64(c%4)
			}
		}
		ch := checkAgainstRef(t, spec, n, seed)
		floor := spec.MinCapacity
		if floor == 0 {
			floor = 1
		}
		checkInvariants(t, ch, n, min(floor, n))
	})
}

// benchCases are one run's timelines with the parameters of the
// sweep-volatile (48 nodes, 20,000 s) and fed-fleet (32 and 24 nodes,
// 8,000 s) benchmark workloads.
var benchCases = []struct {
	name  string
	nodes int
	spec  Spec
}{
	{"maintenance", 48, Spec{Process: "maintenance", StartS: 200, PeriodS: 600, DurationS: 120, NodesDown: 12, NoticeS: 60, HorizonS: 20000}},
	{"failures", 32, Spec{Process: "failures", MTTFS: 300, MTTRS: 60, HorizonS: 8000}},
	{"churn", 48, Spec{Process: "churn", MeanOnS: 500, MeanOffS: 100, MinCapacity: 12, HorizonS: 20000}},
	{"spot", 24, Spec{Process: "spot", ReclaimMeanS: 150, ReclaimNodes: 4, RestoreMeanS: 200, NoticeS: 30, MinCapacity: 4, HorizonS: 8000}},
}

// BenchmarkAvailabilityGenerate generates one run's whole timeline per op
// for each stochastic and periodic process.
func BenchmarkAvailabilityGenerate(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.spec.Generate(c.nodes, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAvailabilityPull pulls the first quarter of the horizon from a
// fresh Timeline per op: what a run that ends a quarter of the way in
// pays, against the whole horizon Generate draws.
func BenchmarkAvailabilityPull(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			src := rng.New(1)
			quarter := c.spec.HorizonS / 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl, err := c.spec.Timeline(c.nodes, src)
				if err != nil {
					b.Fatal(err)
				}
				for {
					ch, ok, err := tl.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok || ch.At >= quarter {
						break
					}
				}
			}
		})
	}
}
