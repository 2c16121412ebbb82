package core_test

import (
	"reflect"
	"sync"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
)

// luRun is what one engine run leaves behind.
type luRun struct {
	res   core.Result
	table map[string]eventq.Duration
	fired uint64
	err   error
}

func runLU(cfg lu.Config) luRun {
	app, err := lu.Build(cfg)
	if err != nil {
		return luRun{err: err}
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        core.NewSimPlatform(cfg.Nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
		NoAlloc:         true,
		PerStepOverhead: 25 * eventq.Microsecond,
		LocalLatency:    20 * eventq.Microsecond,
		RecordDurations: true,
	})
	if err != nil {
		return luRun{err: err}
	}
	app.Start(eng)
	res, err := eng.Run()
	return luRun{res: res, table: eng.DurationTable(), fired: eng.Queue().Fired(), err: err}
}

// TestConcurrentEnginesMatchSequential: engines share no mutable state
// (the invocation counter used to be a package variable), so two of them
// running on two goroutines — what experiments.inParallel does — produce
// exactly what they produce one after the other. Run under -race.
func TestConcurrentEnginesMatchSequential(t *testing.T) {
	cfgs := []lu.Config{
		{N: 648, R: 81, Nodes: 4},
		{N: 648, R: 54, Nodes: 4, Pipelined: true, Window: 8},
	}
	want := make([]luRun, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runLU(cfg)
		if want[i].err != nil {
			t.Fatal(want[i].err)
		}
	}
	got := make([]luRun, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runLU(cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if got[i].err != nil {
			t.Fatal(got[i].err)
		}
		if got[i].res != want[i].res || got[i].fired != want[i].fired {
			t.Errorf("config %d: concurrent %+v (%d events), sequential %+v (%d events)",
				i, got[i].res, got[i].fired, want[i].res, want[i].fired)
		}
		if !reflect.DeepEqual(got[i].table, want[i].table) {
			t.Errorf("config %d: duration tables differ:\nconcurrent %v\nsequential %v", i, got[i].table, want[i].table)
		}
	}
}
