package appmodel

import (
	"fmt"
	"math"
)

func init() {
	Register("amdahl", newAmdahl)
	Register("downey", newDowney)
	Register("comm-bound", newCommBound)
	Register("roofline", newRoofline)
	Register("fixed", newFixed)
}

// --- amdahl ---

// Amdahl is Amdahl's law with serial fraction F: a fraction F of every
// phase cannot be parallelized, so speedup(n) = n / (1 + F·(n-1)) and
// efficiency decays as 1/(1 + F·(n-1)). It is the classic upper-bound
// model for strong scaling.
type Amdahl struct {
	F float64
	Costs
}

func newAmdahl(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "amdahl", "f")
	if err != nil {
		return nil, err
	}
	f := p.Float("f", 0.05)
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("appmodel: amdahl serial fraction f=%g outside [0, 1]", f)
	}
	return Amdahl{F: f, Costs: c}, nil
}

// Name implements AppModel.
func (m Amdahl) Name() string { return "amdahl" }

// Efficiency implements AppModel.
func (m Amdahl) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return 1 / (1 + m.F*float64(nodes-1))
}

// Rate implements AppModel.
func (m Amdahl) Rate(work float64, nodes int) float64 {
	return float64(nodes) * m.Efficiency(work, nodes)
}

// PhaseTime implements AppModel.
func (m Amdahl) PhaseTime(work float64, nodes int) float64 {
	return timeOf(work, m.Rate(work, nodes))
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

func newDowney(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "downey", "A", "sigma")
	if err != nil {
		return nil, err
	}
	a := p.Float("A", 16)
	sigma := p.Float("sigma", 1)
	if a < 1 {
		return nil, fmt.Errorf("appmodel: downey average parallelism A=%g must be >= 1", a)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("appmodel: downey sigma=%g must be >= 0", sigma)
	}
	return Downey{A: a, Sigma: sigma, Costs: c}, nil
}

// Name implements AppModel.
func (m Downey) Name() string { return "downey" }

// speedup evaluates Downey's piecewise curve at n nodes.
func (m Downey) speedup(nodes int) float64 {
	p := float64(nodes)
	a, s := m.A, m.Sigma
	if s <= 1 {
		// Low variance: linear-ish up to A, bending to the plateau at 2A-1.
		switch {
		case p <= a:
			return a * p / (a + s/2*(p-1))
		case p <= 2*a-1:
			return a * p / (s*(a-0.5) + p*(1-s/2))
		default:
			return a
		}
	}
	// High variance: a single hyperbolic segment up to A + Aσ - σ.
	if p <= a+a*s-s {
		return p * a * (s + 1) / (s*(p+a-1) + a)
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

// PhaseTime implements AppModel.
func (m Downey) PhaseTime(work float64, nodes int) float64 {
	if nodes <= 0 {
		return math.Inf(1)
	}
	return timeOf(work, m.speedup(nodes))
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

// PhaseTime implements AppModel.
func (m CommBound) PhaseTime(work float64, nodes int) float64 {
	if nodes <= 0 {
		return math.Inf(1)
	}
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
	t := m.PhaseTime(work, nodes)
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
// adversarial case for schedulers that keep growing allocations.
type Roofline struct {
	Sat int
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

// Name implements AppModel.
func (m Roofline) Name() string { return "roofline" }

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

// PhaseTime implements AppModel.
func (m Roofline) PhaseTime(work float64, nodes int) float64 {
	return timeOf(work, m.Rate(work, nodes))
}

// --- fixed ---

// Fixed is a rigid application that cannot exploit parallelism: speedup
// is 1 at any allocation, so every extra node is pure waste. It is the
// baseline that separates scheduling gains from speedup-curve gains.
type Fixed struct {
	Costs
}

func newFixed(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "fixed")
	if err != nil {
		return nil, err
	}
	return Fixed{Costs: c}, nil
}

// Name implements AppModel.
func (m Fixed) Name() string { return "fixed" }

// Rate implements AppModel.
func (m Fixed) Rate(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return 1
}

// Efficiency implements AppModel.
func (m Fixed) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return 1 / float64(nodes)
}

// PhaseTime implements AppModel.
func (m Fixed) PhaseTime(work float64, nodes int) float64 {
	if nodes <= 0 {
		return math.Inf(1)
	}
	return work
}
