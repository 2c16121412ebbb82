package main

import (
	"math"
	"sync"
	"time"
)

// The sandbox this benchmark runs in changes speed: for minutes at a
// time every program on it — the children, the Go toolchain, a spin
// loop — runs 15–35% slower, then recovers (README, "How steady it is
// here"). Two rounds of identical runs an hour apart differed by 25% in
// raw seconds, which is the whole regression bound. So the end-to-end
// times are reported in reference seconds: before every child
// repetition the harness times this fixed kernel calPasses times, and
// a run's times are scaled by calNominalS over the first quartile of
// the run's kernel times. The kernel shares no code with the simulator,
// so no change under test can move it, and it must never be edited: it
// is the unit.
//
// Measured while sizing, two rounds of ten runs per workload 17 minutes
// apart: the round-to-round shift of the median wall time fell from
// −13% to −5% (sweep-open), −11% to −2% (sweep-volatile), −16% to −5%
// (big-active) and +17% to +6% (paper-lu). Noise faster than a run is
// not corrected (the kernel and a repetition see different instants);
// that is what the first quartile is for.
const (
	// calNominalS is the kernel's time on the reference sandbox (2-core
	// Xeon @ 2.10 GHz KVM guest) in its fast regime: there, reference
	// seconds are seconds.
	calNominalS = 0.105
	calIters    = 1000000
	calNodes    = 1 << 15
	// calPasses kernel runs precede every child repetition; a run pools
	// them all (18–40 samples).
	calPasses = 3
)

// calNode is 64 bytes, 2 MiB in all: like a simulator's job states, it
// fits the L2 cache and not the L1.
type calNode struct {
	key   float64
	next  int32
	alloc int32
	work  [5]float64
}

// calKernel mixes what the simulators do per event: a 4-ary heap sift,
// a short pointer chase with floating-point rate arithmetic, a branch on
// the result.
func calKernel(seed uint64) float64 {
	heap := make([]float64, calNodes)
	nodes := make([]calNode, calNodes)
	x := seed
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range heap {
		heap[i] = float64(next()%1000000) / 7
		nodes[i] = calNode{key: heap[i], next: int32(next() % calNodes), alloc: int32(next() % 64)}
	}
	var acc float64
	cur := int32(0)
	for it := 0; it < calIters; it++ {
		v := heap[0] + float64(next()%1000)/3
		i := 0
		for {
			c := 4*i + 1
			if c >= calNodes {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < calNodes; k++ {
				if heap[k] < heap[m] {
					m = k
				}
			}
			if heap[m] >= v {
				break
			}
			heap[i] = heap[m]
			i = m
		}
		heap[i] = v
		for k := 0; k < 8; k++ {
			nd := &nodes[cur]
			rate := float64(nd.alloc+1) / (1 + 0.05*float64(nd.alloc))
			nd.work[k%5] += rate * 0.001
			if nd.work[k%5] > 1 {
				nd.work[k%5] = math.Sqrt(nd.work[k%5])
			}
			acc += nd.key * rate
			cur = nd.next
		}
	}
	return acc
}

// calibrate times the kernel on as many goroutines as a child has
// workers, and returns the seconds until the last has finished.
func calibrate() float64 {
	var wg sync.WaitGroup
	sums := make([]float64, childWorkers)
	t0 := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = calKernel(uint64(g + 1))
		}()
	}
	wg.Wait()
	s := time.Since(t0).Seconds()
	if sums[0] == 0 { // keeps the kernel's result live
		return math.NaN()
	}
	return s
}
