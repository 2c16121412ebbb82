package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dpsim/internal/core"
	"dpsim/internal/eventq"
)

// IterationStat describes one iteration (phase) of a run.
type IterationStat struct {
	// Index is the iteration number (0-based).
	Index int
	// Start and End bound the iteration in virtual time.
	Start, End eventq.Time
	// Elapsed is End-Start.
	Elapsed eventq.Duration
	// Nodes is the number of allocated compute nodes during the
	// iteration (the maximum, if the allocation changed mid-iteration).
	Nodes int
	// SerialWork is the single-node compute time of the iteration's
	// operations (supplied by the application's cost model).
	SerialWork eventq.Duration
	// Efficiency is SerialWork / (Nodes × Elapsed): the fraction of the
	// allocated capacity doing useful work — the paper's dynamic
	// efficiency at this iteration step.
	Efficiency float64
}

// Iterations slices a run into per-iteration statistics from the engine's
// phase marks ("iter:k") and allocation history. serialWork(k) supplies
// the per-iteration serial baseline; end is the total elapsed time.
func Iterations(phases []core.PhaseMark, allocs []core.AllocMark, end eventq.Time, serialWork func(k int) eventq.Duration) []IterationStat {
	var iters []IterationStat
	for i, ph := range phases {
		if !strings.HasPrefix(ph.Name, "iter:") {
			continue
		}
		var idx int
		fmt.Sscanf(ph.Name, "iter:%d", &idx)
		stop := end
		if i+1 < len(phases) {
			stop = phases[i+1].Time
		}
		st := IterationStat{
			Index:      idx,
			Start:      ph.Time,
			End:        stop,
			Elapsed:    eventq.Duration(stop - ph.Time),
			Nodes:      nodesDuring(allocs, ph.Time, stop),
			SerialWork: serialWork(idx),
		}
		if st.Elapsed > 0 && st.Nodes > 0 {
			st.Efficiency = float64(st.SerialWork) / (float64(st.Nodes) * float64(st.Elapsed))
		}
		iters = append(iters, st)
	}
	return iters
}

// nodesDuring returns the maximum allocated-node count over [from, to).
func nodesDuring(allocs []core.AllocMark, from, to eventq.Time) int {
	nodes := 0
	current := 0
	for _, a := range allocs {
		if a.Time <= from {
			current = a.Nodes
			continue
		}
		if a.Time >= to {
			break
		}
		if a.Nodes > current {
			current = a.Nodes
		}
		if current > nodes {
			nodes = current
		}
	}
	if current > nodes {
		nodes = current
	}
	return nodes
}

// MeanEfficiency returns the time-weighted dynamic efficiency over a run.
func MeanEfficiency(iters []IterationStat) float64 {
	var num, den float64
	for _, it := range iters {
		num += float64(it.SerialWork)
		den += float64(float64(it.Nodes) * float64(it.Elapsed))
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// --- prediction error statistics (Fig. 13) ---

// ErrorSample is one measured/predicted pair.
type ErrorSample struct {
	Label     string
	Measured  float64
	Predicted float64
}

// Err returns the relative prediction error (predicted-measured)/measured.
func (s ErrorSample) Err() float64 {
	if s.Measured == 0 {
		return 0
	}
	return (s.Predicted - s.Measured) / s.Measured
}

// ErrorStats summarizes a set of prediction errors.
type ErrorStats struct {
	N           int
	MeanAbs     float64
	Max         float64 // largest |error|
	Within4Pct  float64 // fraction within ±4%
	Within6Pct  float64
	Within12Pct float64
}

// Stats computes the paper's accuracy summary (§8: "71.4% of all
// predictions are within ±4% accuracy, 81.6% within ±6%, and more than
// 95% within ±12%").
func Stats(samples []ErrorSample) ErrorStats {
	st := ErrorStats{N: len(samples)}
	if len(samples) == 0 {
		return st
	}
	var w4, w6, w12 int
	for _, s := range samples {
		e := math.Abs(s.Err())
		st.MeanAbs += e
		if e > st.Max {
			st.Max = e
		}
		if e <= 0.04 {
			w4++
		}
		if e <= 0.06 {
			w6++
		}
		if e <= 0.12 {
			w12++
		}
	}
	n := float64(len(samples))
	st.MeanAbs /= n
	st.Within4Pct = float64(w4) / n
	st.Within6Pct = float64(w6) / n
	st.Within12Pct = float64(w12) / n
	return st
}

// Histogram bins prediction errors into 2%-wide buckets centered like the
// paper's Fig. 13 (−16% … +16%).
type Histogram struct {
	// Edges[i] is the lower bound of bucket i; buckets are 2% wide.
	Edges  []float64
	Counts []int
	// Underflow and Overflow count samples outside the edge range.
	Underflow, Overflow int
}

// BuildHistogram bins the samples' relative errors.
func BuildHistogram(samples []ErrorSample) Histogram {
	const lo, hi, width = -0.16, 0.16, 0.02
	n := int((hi - lo) / width)
	h := Histogram{Edges: make([]float64, n), Counts: make([]int, n)}
	for i := range h.Edges {
		h.Edges[i] = lo + float64(float64(i)*width)
	}
	for _, s := range samples {
		e := s.Err()
		switch {
		case e < lo:
			h.Underflow++
		case e >= hi:
			h.Overflow++
		default:
			h.Counts[int((e-lo)/width)]++
		}
	}
	return h
}

// Render draws the histogram as rows of hashes, largest-to-zero buckets in
// error order.
func (h Histogram) Render() string {
	var b strings.Builder
	for i, c := range h.Counts {
		fmt.Fprintf(&b, "%+6.0f%% | %-3d %s\n", h.Edges[i]*100, c, strings.Repeat("#", c))
	}
	if h.Underflow > 0 || h.Overflow > 0 {
		fmt.Fprintf(&b, "outside | %d under, %d over\n", h.Underflow, h.Overflow)
	}
	return b.String()
}

// --- small summary statistics helpers ---

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Stddev returns the sample standard deviation of v.
func Stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		s += float64((x - m) * (x - m))
	}
	return math.Sqrt(s / float64(len(v)-1))
}

// Median returns the median of v (0 for empty input).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Percentile returns the p-quantile of v for p in [0, 1], using linear
// interpolation between order statistics (the common "type 7" estimator).
// It returns 0 for empty input, NaN for NaN p, and clamps p to [0, 1].
// The input is never modified: a copy is sorted. Callers that need
// several quantiles of the same data should sort once themselves and use
// PercentileSorted, which avoids the per-call copy (and therefore sorts
// nothing — its input must already be sorted ascending).
func Percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile over an already-sorted slice, avoiding
// the per-call copy and sort when several quantiles of the same data are
// needed.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}
