package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"dpsim/internal/metrics"
)

// TestFiguresIndependentOfGOMAXPROCS: a figure's configurations run on
// GOMAXPROCS workers, and the table and the order of the samples are the
// same at every worker count.
func TestFiguresIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	figures := map[string]func(Setup) (*Table, []metrics.ErrorSample, error){"fig9": Fig9, "fig10": Fig10}
	for name, fig := range figures {
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tb, samples, err := fig(quick())
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(tb, samples)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s at GOMAXPROCS=%d differs from GOMAXPROCS=1\n--- got ---\n%s--- want ---\n%s", name, procs, got, want)
			}
		}
	}
}

// TestInParallelOrderAndFirstError: results come back in index order, and
// of several failing indices the lowest is reported, at any worker count
// and whichever failure happens first on the clock.
func TestInParallelOrderAndFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := inParallel(40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: result %d = %d, want %d", procs, i, v, i*i)
			}
		}

		// Index 5 fails only after index 9 has: the later failure is
		// observed first, the earlier index is still the one reported.
		// Every index from 10 on waits until index 5 has failed and then
		// fails too, so the worker running it stores the failure itself
		// and takes no further index: whatever the schedule, each worker
		// runs at most one index past 9.
		var ninthFailed, fifthFailed atomic.Bool
		var calls atomic.Int64
		_, err = inParallel(40, func(i int) (int, error) {
			calls.Add(1)
			switch {
			case i == 5:
				for procs > 1 && !ninthFailed.Load() {
					runtime.Gosched()
				}
				fifthFailed.Store(true)
				return 0, errors.New("config 5")
			case i == 9:
				ninthFailed.Store(true)
				return 0, errors.New("config 9")
			case i >= 10:
				for !fifthFailed.Load() {
					runtime.Gosched()
				}
				return 0, fmt.Errorf("config %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "config 5" {
			t.Fatalf("GOMAXPROCS=%d: error %v, want that of the lowest failing index (config 5)", procs, err)
		}
		// One worker stops right after index 5; several may each start
		// one index past 9 before they see a failure.
		limit := int64(10 + min(procs, 40))
		if procs == 1 {
			limit = 6
		}
		if n := calls.Load(); n > limit {
			t.Errorf("GOMAXPROCS=%d: %d indices ran although index 5 failed, want at most %d", procs, n, limit)
		}
	}
	if out, err := inParallel(0, func(int) (int, error) { return 0, fmt.Errorf("called") }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v, %v", out, err)
	}
}

// BenchmarkFig10Quick is the paper-side end of the benchmark ladder: the
// 15 configurations (30 engine runs) behind `paperrepro -exp fig10 -quick
// -seeds 1`, which is the repository benchmark's paper-lu workload.
// allocs/step, ns/step and events/s divide by the atomic steps and fired
// events of one pass, which are exact and counted once, untimed. ns/step
// is the unit to compare across changes that remove events: events/s
// falls when a run fires fewer events for the same steps, however much
// faster it gets.
func BenchmarkFig10Quick(b *testing.B) {
	s := quick()
	s.fill()
	_, cfgs := fig10Configs(s)
	runs, err := measureAll(cfgs, s)
	if err != nil {
		b.Fatal(err)
	}
	var steps, events uint64
	for _, r := range runs {
		steps += r.Steps
		events += r.Events
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig10(s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
	b.ReportMetric(allocs/float64(steps), "allocs/step")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*steps), "ns/step")
	b.ReportMetric(float64(uint64(b.N)*events)/b.Elapsed().Seconds(), "events/s")
	// CI's allocs/op gate is exact, and of this benchmark's 1.2 M objects a
	// handful (goroutine descriptors, sync.Pool refills after a GC cycle)
	// come and go from run to run: report the nearest thousand.
	b.ReportMetric(math.Round(allocs/1000)*1000, "allocs/op")
}
