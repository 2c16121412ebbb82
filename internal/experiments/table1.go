package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dpsim/internal/core"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/linalg"
	"dpsim/internal/lu"
	"dpsim/internal/rng"
)

// HostFlopsPerSec benchmarks this host's dense-multiply throughput; the
// ratio to the modeled UltraSparc II speed becomes the direct-execution
// CPU scale factor (host wall seconds → target virtual seconds).
func HostFlopsPerSec() float64 {
	const n = 144
	src := rng.New(1)
	a := linalg.Random(n, n, src)
	b := linalg.Random(n, n, src)
	c := linalg.NewMat(n, n)
	// Warm up, then time at least 50 ms.
	linalg.Gemm(1, a, b, 0, c)
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		linalg.Gemm(1, a, b, 0, c)
		reps++
	}
	elapsed := time.Since(start).Seconds()
	return float64(reps) * linalg.GemmFlops(n, n, n) / elapsed
}

// runCost captures the host-side cost of running one simulation.
type runCost struct {
	wall      float64 // host seconds
	allocMB   float64 // bytes allocated during the run
	predicted float64 // predicted (virtual) application running time
}

// measureSimulation runs fn between memory snapshots.
func measureSimulation(fn func() (eventq.Time, error)) (runCost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	elapsed, err := fn()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return runCost{
		wall:      wall,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		predicted: elapsed.Seconds(),
	}, err
}

// Table1 regenerates the paper's Table 1: the host-side running time and
// memory consumption of the three simulation settings — direct execution,
// partial direct execution (PDEXEC) and PDEXEC without allocations
// (NOALLOC) — together with the predicted application running time of
// each, plus the testbed reference times.
//
// The paper ran this on two physical hosts; here the direct-execution row
// depends on this host's speed (reported via the measured CPU scale)
// while the PDEXEC rows are host-independent, which is the portability
// claim of §7. An extra row predicts from purely analytic durations to
// show the prediction is insensitive to the duration source.
func Table1(s Setup) (*Table, error) {
	s.fill()
	n, r := s.N(), 216
	if s.Quick {
		n, r = 864, 72 // 864/72 = 12 blocks, the structure of the paper's r=216
	}
	cfg := lu.Config{N: n, R: r, Nodes: 8}
	hostFlops := HostFlopsPerSec()
	scale := hostFlops / lu.DefaultCostModel().FlopsPerSec

	t := &Table{
		Title:  fmt.Sprintf("Table 1 — simulation cost, LU %dx%d r=%d on 8 nodes", n, n, r),
		Header: []string{"setting", "sim wall[s]", "alloc[MB]", "predicted[s]"},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host ≈ %.0f MFLOP/s → direct-execution CPU scale %.1fx to the 63 MFLOP/s target", hostFlops/1e6, scale))

	// Reference: the "real application" on the virtual cluster.
	ref, err := MeasureAndPredict("table1-ref", cfg, Setup{Quick: s.Quick, Seeds: 1, BaseSeed: s.BaseSeed})
	if err != nil {
		return nil, err
	}
	t.Add("Real application (8 nodes, testbed)", "-", "-", f1(ref.MeasuredMean()))
	t.Add("Real application (1 node, serial model)", "-", "-",
		f1(lu.TotalSerialWork(lu.DefaultCostModel(), n, r).Seconds()))

	// The simulation settings, each on the 8-node simulator platform. The
	// first records the duration table the two PDEXEC rows replay.
	settings := []struct {
		label  string
		c      core.Config
		replay bool
	}{
		// Direct execution: kernels actually run on this host; CPUScale
		// converts host wall seconds to target seconds (the host is
		// `scale` times faster than the modeled UltraSparc).
		{"Direct execution (sim)", core.Config{Mode: dps.ModeDirectMemo, MemoN: 3, CPUScale: scale}, false},
		// PDEXEC: kernel calls replaced by the benchmarked durations; the
		// matrix is still allocated (the paper's middle row).
		{"PDEXEC (sim)", core.Config{}, true},
		// PDEXEC NOALLOC: no matrix, no payloads; sizes from the counting
		// serializer.
		{"PDEXEC NOALLOC (sim)", core.Config{NoAlloc: true}, true},
		// Portability check: predicting from purely analytic durations (a
		// different duration source, standing in for a different host).
		{"PDEXEC NOALLOC (analytic durations)", core.Config{NoAlloc: true}, false},
	}
	var table map[string]eventq.Duration
	for i, st := range settings {
		if st.replay {
			st.c.Durations = core.TableSource{Table: table}
		}
		cost, err := measureSimulation(func() (eventq.Time, error) {
			_, eng, res, err := runLU(cfg, core.NewSimPlatform(8, simNetParams(), simCPUParams()), st.c)
			if err == nil && i == 0 {
				table = eng.DurationTable()
			}
			return res.Elapsed, err
		})
		if err != nil {
			return nil, err
		}
		t.Add(st.label, f2(cost.wall), f1(cost.allocMB), f1(cost.predicted))
	}
	return t, nil
}
