package parallel

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/linalg"
	"dpsim/internal/lu"
	"dpsim/internal/serial"
	"dpsim/internal/transport"
)

// --- test objects ---

type num struct{ V int64 }

func (n *num) MarshalDPS(w serial.Writer)          { w.I64(n.V) }
func (n *num) UnmarshalDPS(r *serial.Reader) error { n.V = r.I64(); return r.Err() }

func testCodec() *transport.Codec {
	c := transport.NewCodec()
	c.Register(100, func() transport.Decodable { return &num{} })
	return c
}

// sumApp builds split -> leaf(double) -> merge(sum into shared counter).
func sumApp(nodes, width, fan int, total *atomic.Int64) (*dps.Graph, *dps.Op) {
	master := dps.NewCollection("m", 1, nodes)
	workers := dps.NewCollection("w", width, nodes)
	g := dps.NewGraph("sum")
	split := g.Split("split", master, func(ctx dps.Ctx, in dps.DataObject) {
		base := in.(*num).V
		for i := 0; i < fan; i++ {
			ctx.Post(&num{V: base + int64(i)})
		}
	})
	leaf := g.Leaf("double", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&num{V: in.(*num).V * 2})
	})
	merge := g.Merge("sum", master, func(dps.DataObject) dps.MergeState {
		return &sumMerge{total: total}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	return g, split
}

type sumMerge struct {
	total *atomic.Int64
	local int64
}

func (s *sumMerge) Absorb(ctx dps.Ctx, in dps.DataObject) { s.local += in.(*num).V }
func (s *sumMerge) Finish(ctx dps.Ctx)                    { s.total.Store(s.local) }

func TestLocalTransportFanOut(t *testing.T) {
	var total atomic.Int64
	g, split := sumApp(4, 4, 16, &total)
	rt, err := New(Config{Graph: g, Nodes: 4, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{V: 10})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	// sum of 2*(10..25) = 2*(16*10+120) = 560
	if total.Load() != 560 {
		t.Fatalf("sum = %d, want 560", total.Load())
	}
}

func TestTCPTransportFanOut(t *testing.T) {
	var total atomic.Int64
	g, split := sumApp(3, 3, 9, &total)
	rt, err := New(Config{Graph: g, Nodes: 3, Codec: testCodec(), UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{V: 1})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	// sum of 2*(1..9) = 90
	if total.Load() != 90 {
		t.Fatalf("sum = %d, want 90", total.Load())
	}
}

func TestSingleNodeNoCodecNeeded(t *testing.T) {
	var total atomic.Int64
	g, split := sumApp(1, 2, 8, &total)
	rt, err := New(Config{Graph: g, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{V: 0})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 56 { // 2*(0+..+7) = 56
		t.Fatalf("sum = %d", total.Load())
	}
}

func TestFlowControlDelivery(t *testing.T) {
	var total atomic.Int64
	g, split := sumApp(2, 2, 40, &total)
	g.Pairs()[0].SetWindow(3)
	rt, err := New(Config{Graph: g, Nodes: 2, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{V: 0})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 2*(40*39/2) {
		t.Fatalf("windowed sum = %d, want %d", total.Load(), 2*(40*39/2))
	}
}

func TestLeafViolationSurfaces(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("bad")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&num{})
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {})
	merge := g.Merge("m", master, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &atomic.Int64{}} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	rt, err := New(Config{Graph: g, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{})
	err = rt.Wait()
	if err == nil || !strings.Contains(err.Error(), "exactly 1") {
		t.Fatalf("leaf violation not surfaced: %v", err)
	}
}

func TestUserPanicSurfaces(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("boom")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		panic("bang")
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("m", master, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &atomic.Int64{}} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	rt, err := New(Config{Graph: g, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{})
	err = rt.Wait()
	if err == nil || !strings.Contains(err.Error(), "bang") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestStreamOnRealRuntime(t *testing.T) {
	// split -> stream(relay, posts immediately) -> leaf -> merge.
	var total atomic.Int64
	master := dps.NewCollection("m", 1, 2)
	workers := dps.NewCollection("w", 2, 2)
	g := dps.NewGraph("stream")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 1; i <= 6; i++ {
			ctx.Post(&num{V: int64(i)})
		}
	})
	relay := g.Stream("relay", master, func(dps.DataObject) dps.MergeState { return &relayState{} })
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	sink := g.Merge("sink", master, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &total} })
	g.Connect(split, relay, nil)
	e := g.Connect(relay, leaf, dps.RoundRobin)
	g.Connect(leaf, sink, nil)
	g.PairOps(split, relay, nil)
	g.PairOps(relay, sink, nil, e)
	rt, err := New(Config{Graph: g, Nodes: 2, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 21 {
		t.Fatalf("stream sum = %d, want 21", total.Load())
	}
}

type relayState struct{}

func (relayState) Absorb(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) }
func (relayState) Finish(dps.Ctx)                        {}

// TestRealLUOverTCP runs the full LU application on the real runtime with
// TCP transport and verifies the distributed factors: the paper's claim
// that the real and simulated applications run identically.
func TestRealLUOverTCP(t *testing.T) {
	cfg := lu.Config{N: 24, R: 6, Nodes: 2, Pipelined: true}
	app, err := lu.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	codec := transport.NewCodec()
	lu.RegisterCodec(codec)
	rt, err := New(Config{Graph: app.Graph, Nodes: 2, Codec: codec, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	orig := app.Prepare(rt.Store, 42)
	rt.Inject(app.Init, 0, &lu.Seed{})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	got := app.Assemble(rt.Store)
	ref := orig.Clone()
	if _, err := linalg.BlockedLU(ref, cfg.R); err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(ref, 1e-9*float64(cfg.N)) {
		t.Fatalf("real-runtime LU differs from reference by %g", got.MaxAbsDiff(ref))
	}
	if len(rt.Phases()) != cfg.N/cfg.R {
		t.Fatalf("phases = %d, want %d iterations", len(rt.Phases()), cfg.N/cfg.R)
	}
}

func TestRealLUWithFlowControlLocal(t *testing.T) {
	cfg := lu.Config{N: 24, R: 6, Nodes: 3, Pipelined: true, Window: 2}
	app, err := lu.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	codec := transport.NewCodec()
	lu.RegisterCodec(codec)
	rt, err := New(Config{Graph: app.Graph, Nodes: 3, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	orig := app.Prepare(rt.Store, 7)
	rt.Inject(app.Init, 0, &lu.Seed{})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	got := app.Assemble(rt.Store)
	ref := orig.Clone()
	if _, err := linalg.BlockedLU(ref, cfg.R); err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(ref, 1e-9*float64(cfg.N)) {
		t.Fatalf("windowed real LU differs by %g", got.MaxAbsDiff(ref))
	}
}

func TestSleepModelled(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("sleep")
	ran := false
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("w", eventq.Millisecond, nil) // sleeps 1ms
		ran = true
		ctx.Post(&num{})
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("m", master, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &atomic.Int64{}} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	rt, err := New(Config{Graph: g, Nodes: 1, SleepModelled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("split did not run")
	}
}

func TestConcurrentInjections(t *testing.T) {
	// Several root instances running concurrently must not interfere.
	var mu sync.Mutex
	sums := map[int64]int64{}
	master := dps.NewCollection("m", 2, 2)
	workers := dps.NewCollection("w", 4, 2)
	g := dps.NewGraph("multi")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 5; i++ {
			ctx.Post(&num{V: in.(*num).V})
		}
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("m", master, func(first dps.DataObject) dps.MergeState {
		return &keyedSum{mu: &mu, sums: sums}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, func(first dps.DataObject, width int) int {
		return int(first.(*num).V) % width
	})
	rt, err := New(Config{Graph: g, Nodes: 2, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for v := int64(1); v <= 6; v++ {
		rt.Inject(split, int(v)%2, &num{V: v})
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for v := int64(1); v <= 6; v++ {
		if sums[v] != 5*v {
			t.Fatalf("instance %d sum = %d, want %d", v, sums[v], 5*v)
		}
	}
}

type keyedSum struct {
	mu   *sync.Mutex
	sums map[int64]int64
	key  int64
	acc  int64
}

func (k *keyedSum) Absorb(ctx dps.Ctx, in dps.DataObject) {
	k.key = in.(*num).V
	k.acc += in.(*num).V
}

func (k *keyedSum) Finish(ctx dps.Ctx) {
	k.mu.Lock()
	k.sums[k.key] = k.acc
	k.mu.Unlock()
}
