package metrics

// This file holds the streaming (single-pass, O(1)-memory) summary
// statistics for the sweep aggregation path: replications fold into
// these accumulators as they complete instead of pooling per-job slices,
// and the Welford variance yields the confidence intervals the sweep
// exports.

import (
	"encoding/json"
	"math"
)

// Welford accumulates count, mean and variance in one numerically stable
// pass (Welford's online algorithm). The zero value is ready to use.
//
// Note that the streamed Mean is NOT bit-identical to a naive
// sum-then-divide over the same values: callers that must reproduce an
// existing sum-based mean exactly (the sweep's golden columns) keep
// their own running sum and use Welford only for the variance-derived
// statistics.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// N returns the number of observations folded so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample (n-1) variance, 0 for fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// welfordState is the serialized form of a Welford accumulator. JSON
// float64 encoding is shortest-round-trip, so a marshal/unmarshal cycle
// restores the exact bits — checkpointed sweep aggregates resume
// bit-identical (finite values only, which is all Add can produce from
// finite inputs).
type welfordState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON implements json.Marshaler, exposing the accumulator state
// for checkpointing.
func (w Welford) MarshalJSON() ([]byte, error) {
	return json.Marshal(welfordState{N: w.n, Mean: w.mean, M2: w.m2})
}

// UnmarshalJSON implements json.Unmarshaler, restoring a checkpointed
// accumulator bit-exactly.
func (w *Welford) UnmarshalJSON(data []byte) error {
	var st welfordState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*w = Welford{n: st.N, mean: st.Mean, m2: st.M2}
	return nil
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean, 1.96·s/√n — 0 for fewer than two observations.
// (For replication counts below ~30 the true Student-t interval is
// somewhat wider; the normal approximation keeps the column a pure
// function of mean and variance.)
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Stddev() / math.Sqrt(float64(w.n))
}

// MinMax tracks the extremes of a stream. The zero value is ready to
// use; before any observation both extremes report 0.
type MinMax struct {
	n        int
	min, max float64
}

// Add folds one observation.
func (m *MinMax) Add(x float64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.n++
}

// N returns the number of observations folded so far.
func (m *MinMax) N() int { return m.n }

// Min returns the smallest observation (0 for an empty stream).
func (m *MinMax) Min() float64 { return m.min }

// Max returns the largest observation (0 for an empty stream).
func (m *MinMax) Max() float64 { return m.max }

// minMaxState is the serialized form of a MinMax tracker (see
// welfordState for the exact-restore contract).
type minMaxState struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (m MinMax) MarshalJSON() ([]byte, error) {
	return json.Marshal(minMaxState{N: m.n, Min: m.min, Max: m.max})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MinMax) UnmarshalJSON(data []byte) error {
	var st minMaxState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*m = MinMax{n: st.N, min: st.Min, max: st.Max}
	return nil
}
