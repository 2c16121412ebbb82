package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// runParkedPanic runs a split that posts four objects through a window-1
// pair to a remote leaf that panics: the split is parked on flow control
// when the panic ends the run.
func runParkedPanic() error {
	master := dps.NewCollection("m", 1, 2)
	workers := dps.NewCollection("w", 1, 2)
	workers.Place(0, 1)
	g := dps.NewGraph("parked-panic")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 4; i++ {
			ctx.Post(&intObj{v: i})
		}
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) { panic("kaboom") })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil).SetWindow(1)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
	eng.Inject(split, 0, &intObj{})
	_, err := eng.Run()
	return err
}

// runBadRoute runs a split whose routing function addresses a thread
// outside the leaf collection: an engine failure raised mid-handler.
func runBadRoute() error {
	master := dps.NewCollection("m", 1, 1)
	workers := dps.NewCollection("w", 4, 1)
	g := dps.NewGraph("bad-route")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{})
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, func(r dps.Routing) int { return 99 })
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	_, err := eng.Run()
	return err
}

// TestRunLeavesNoGoroutines repeats successful and failing runs and
// requires every execution thread to be gone once Run returns — also one
// parked on flow control when another invocation fails.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runFanOut(t)
		if err := runParkedPanic(); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("leaf panic not surfaced: %v", err)
		}
		if err := runBadRoute(); err == nil || !strings.Contains(err.Error(), "outside active width") {
			t.Fatalf("bad routing accepted: %v", err)
		}
	}
	// A goroutine that exits may still be counted for a moment.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before the runs, %d after", before, after)
	}
}

// TestCoroutinesArePooled pins the pool: without flow control an
// invocation never outlives its thread's turn, so a fan-out run of 130
// invocations needs at most one coroutine per DPS thread, and all of them
// are free again when it drains.
func TestCoroutinesArePooled(t *testing.T) {
	const fan = 64
	g, _, _ := buildFanOut(4, 8, fan, eventq.Millisecond, 10*eventq.Microsecond)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(4)})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	invocations := 1 + fan + fan + 1 // split, leaves, absorbs, finish
	if n := len(eng.coros); n > len(eng.threads) || n*10 > invocations {
		t.Fatalf("%d invocations on %d DPS threads created %d coroutines", invocations, len(eng.threads), n)
	}
	if len(eng.free) != len(eng.coros) {
		t.Fatalf("%d of %d coroutines free after the run", len(eng.free), len(eng.coros))
	}
}

// TestPendingNamesSuspendedInvocation steps a window-1 fan-out until its
// split is suspended on flow control (its thread released, its coroutine
// still bound) and requires the deadlock diagnostics to name it.
func TestPendingNamesSuspendedInvocation(t *testing.T) {
	g, _, _ := buildFanOut(1, 1, 8, eventq.Millisecond, 0)
	g.Pairs()[0].SetWindow(1)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	defer eng.shutdown()
	for eng.q.Step() {
		for _, c := range eng.coros {
			if inv := c.inv; inv != nil && inv.kind == iSplit && len(inv.act.order) > 0 && len(inv.act.order[0].waiters) > 0 {
				if got := eng.pendingDescriptions(); !slices.Contains(got, "split invocation of distribute(split) on master[0]") {
					t.Fatalf("suspended split missing from %v", got)
				}
				return
			}
		}
	}
	t.Fatal("the split never suspended on flow control")
}
