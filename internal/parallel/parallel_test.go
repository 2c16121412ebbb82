package parallel

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpsim/internal/dps"
	"dpsim/internal/linalg"
	"dpsim/internal/lu"
	"dpsim/internal/serial"
	"dpsim/internal/transport"
)

// --- test objects ---

type num struct{ V int64 }

func (n *num) Wire(s serial.Stream) { n.V = s.I64(n.V) }

func testCodec() *transport.Codec {
	c := transport.NewCodec()
	c.Register(100, func() serial.Object { return &num{} })
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

// runFanOut fans base..base+fan-1 out over nodes on the loopback TCP mesh,
// doubles each on a leaf, and checks the merged sum.
func runFanOut(t *testing.T, nodes, fan int, base, want int64) {
	t.Helper()
	var total atomic.Int64
	g, split := sumApp(nodes, nodes, fan, &total)
	rt, err := New(Config{Graph: g, Nodes: nodes, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{V: base})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != want {
		t.Fatalf("%d nodes: sum = %d, want %d", nodes, total.Load(), want)
	}
}

// TestLocalTransportFanOut: four in-process nodes, 16 items.
func TestLocalTransportFanOut(t *testing.T) {
	runFanOut(t, 4, 16, 10, 560) // 2*(10+..+25)
}

func TestTCPTransportFanOut(t *testing.T) {
	runFanOut(t, 3, 9, 1, 90) // 2*(1+..+9)
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

// TestRealLUOverTCP runs the full LU application on the real runtime and
// verifies the distributed factors against a serial reference.
func TestRealLUOverTCP(t *testing.T) {
	cfg := lu.Config{N: 24, R: 6, Nodes: 2, Pipelined: true}
	app, err := lu.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	codec := transport.NewCodec()
	lu.RegisterCodec(codec)
	rt, err := New(Config{Graph: app.Graph, Nodes: 2, Codec: codec})
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

func TestRealLUWithFlowControl(t *testing.T) {
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

// TestSameNamedCollectionsStayApart: collection names need not be unique,
// so two collections called "w" must still get their own threads and
// stores, as they do on the simulated engine.
func TestSameNamedCollectionsStayApart(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	a := dps.NewCollection("w", 1, 1)
	b := dps.NewCollection("w", 1, 1)
	g := dps.NewGraph("names")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	leafA := g.Leaf("la", a, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	leafB := g.Leaf("lb", b, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Store()["seen"] = true
		ctx.Post(in)
	})
	merge := g.Merge("m", master, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &atomic.Int64{}} })
	g.Connect(split, leafA, dps.RoundRobin)
	g.Connect(leafA, leafB, dps.RoundRobin)
	g.Connect(leafB, merge, nil)
	g.PairOps(split, merge, nil)
	rt, err := New(Config{Graph: g, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Inject(split, 0, &num{})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if rt.Store(a, 0)["seen"] != nil || rt.Store(b, 0)["seen"] == nil {
		t.Fatalf("stores shared: a = %v, b = %v", rt.Store(a, 0), rt.Store(b, 0))
	}
}

// TestCorruptAckLeavesNoWork: a corrupt ack frame drops exactly the unit
// of in-flight work its sender added, and Wait returns the error.
func TestCorruptAckLeavesNoWork(t *testing.T) {
	var total atomic.Int64
	g, _ := sumApp(2, 2, 1, &total)
	rt, err := New(Config{Graph: g, Nodes: 2, Codec: testCodec()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.addWork() // the sender's share of the ack
	rt.nodes[0].handleMessage(transport.Message{From: 1, Kind: kindAck, Body: []byte{1}})
	if n := rt.inflight.Load(); n != 0 {
		t.Fatalf("in-flight work = %d after a corrupt ack, want 0", n)
	}
	if err := rt.Wait(); err == nil || !strings.Contains(err.Error(), "corrupt ack") {
		t.Fatalf("Wait = %v, want the corrupt-ack error", err)
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
