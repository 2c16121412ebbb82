package appmodel

import (
	"fmt"
	"math"
)

func init() {
	Register("downey", newDowney)
	Register("comm-bound", newCommBound)
	Register("roofline", newRoofline)
	Register("fixed", newFixed)
}

// --- downey ---

// Downey is Downey's two-parameter model of parallel speedup ("A model
// for speedup of parallel programs", 1997): A is the application's
// average parallelism, σ (sigma) the coefficient of variance of its
// parallelism profile. σ = 0 is linear speedup up to A; growing σ bends
// the curve toward earlier saturation. Speedup plateaus at A.
type Downey struct {
	A     float64
	Sigma float64
	Costs
}

// downeyMax bounds A and σ: far beyond any machine's parallelism, and
// low enough that the curve stays finite at every int allocation (at
// A = 1e308 the product A·n overflows to +Inf; at σ = 1e305 it is NaN).
const downeyMax = 1e9

func newDowney(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "downey", "A", "sigma")
	if err != nil {
		return nil, err
	}
	a := p.Float("A", 16)
	sigma := p.Float("sigma", 1)
	if a < 1 || a > downeyMax {
		return nil, fmt.Errorf("appmodel: downey average parallelism A=%g outside [1, %g]", a, float64(downeyMax))
	}
	if sigma < 0 || sigma > downeyMax {
		return nil, fmt.Errorf("appmodel: downey sigma=%g outside [0, %g]", sigma, float64(downeyMax))
	}
	return Downey{A: a, Sigma: sigma, Costs: c}, nil
}

// Name implements AppModel.
func (m Downey) Name() string { return "downey" }

// speedup evaluates Downey's piecewise curve at n nodes. Every product
// that meets a sum is rounded explicitly (float64(...)), so no build
// fuses the two into one multiply-add; that includes s/2, which the
// compiler turns into the product s·0.5.
func (m Downey) speedup(nodes int) float64 {
	p := float64(nodes)
	a, s := m.A, m.Sigma
	if s <= 1 {
		// Low variance: linear-ish up to A, bending to the plateau at 2A-1.
		switch {
		case p <= a:
			return a * p / (a + float64(s/2*(p-1)))
		case p <= 2*a-1:
			return a * p / (float64(s*(a-0.5)) + float64(p*(1-float64(s/2))))
		default:
			return a
		}
	}
	// High variance: a single hyperbolic segment up to A + Aσ - σ.
	if p <= a+float64(a*s)-s {
		return p * a * (s + 1) / (float64(s*(p+a-1)) + a)
	}
	return a
}

// Efficiency implements AppModel.
func (m Downey) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return m.speedup(nodes) / float64(nodes)
}

// Rate implements AppModel.
func (m Downey) Rate(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return m.speedup(nodes)
}

// --- comm-bound ---

// CommBound is a latency/bandwidth-bound phase in the α–β tradition of
// stencil halo exchanges: compute divides perfectly over the nodes, and
// every multi-node phase additionally pays a fixed latency term Alpha
// plus a bandwidth term Beta/n (the per-node share of the exchanged
// volume): time(w, n) = w/n + α + β/n for n > 1, and w for n = 1.
type CommBound struct {
	Alpha float64
	Beta  float64
	Costs
}

func newCommBound(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "comm-bound", "alpha", "beta")
	if err != nil {
		return nil, err
	}
	alpha := p.Float("alpha", 0.1)
	beta := p.Float("beta", 1)
	if alpha < 0 || beta < 0 {
		return nil, fmt.Errorf("appmodel: comm-bound alpha=%g and beta=%g must be >= 0", alpha, beta)
	}
	return CommBound{Alpha: alpha, Beta: beta, Costs: c}, nil
}

// Name implements AppModel.
func (m CommBound) Name() string { return "comm-bound" }

// phaseTime is the wall-clock seconds of a phase of work serial
// work-seconds on nodes >= 1 nodes.
func (m CommBound) phaseTime(work float64, nodes int) float64 {
	if nodes == 1 {
		return work
	}
	n := float64(nodes)
	return work/n + m.Alpha + m.Beta/n
}

// Rate implements AppModel.
func (m CommBound) Rate(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	t := m.phaseTime(work, nodes)
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return work / t
}

// Efficiency implements AppModel.
func (m CommBound) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return m.Rate(work, nodes) / float64(nodes)
}

// --- roofline ---

// Roofline is a memory-bound plateau: compute scales linearly until Sat
// nodes saturate the shared bandwidth, beyond which extra nodes add
// nothing — speedup(n) = min(n, Sat). The sharp knee makes it the
// adversarial case for schedulers that keep growing allocations. At
// Sat = 1 it is the registered fixed model, a rigid application whose
// every extra node is pure waste: the baseline that separates
// scheduling gains from speedup-curve gains.
type Roofline struct {
	// model is the registered name that built this instance: "fixed",
	// or empty for roofline.
	model string
	Sat   int
	Costs
}

func newRoofline(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "roofline", "sat")
	if err != nil {
		return nil, err
	}
	sat := int(math.Round(p.Float("sat", 8)))
	if sat < 1 {
		return nil, fmt.Errorf("appmodel: roofline saturation sat=%d must be >= 1", sat)
	}
	return Roofline{Sat: sat, Costs: c}, nil
}

func newFixed(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "fixed")
	if err != nil {
		return nil, err
	}
	return Roofline{model: "fixed", Sat: 1, Costs: c}, nil
}

// Name implements AppModel.
func (m Roofline) Name() string {
	if m.model == "" {
		return "roofline"
	}
	return m.model
}

// Rate implements AppModel.
func (m Roofline) Rate(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	if nodes > m.Sat {
		return float64(m.Sat)
	}
	return float64(nodes)
}

// Efficiency implements AppModel.
func (m Roofline) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return m.Rate(work, nodes) / float64(nodes)
}
