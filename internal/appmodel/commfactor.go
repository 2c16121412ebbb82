package appmodel

import (
	"fmt"
	"math"
)

func init() {
	Register("lu", newLU)
	Register("synthetic", newSynthetic)
	Register("stencil", newStencil)
	Register("amdahl", newAmdahl)
}

// CommEfficiency is the comm-factor curve: a phase with communication or
// imbalance factor c runs at efficiency 1/(1 + c·(p-1)) on p nodes, and
// makes no progress without nodes. It is the one statement of the
// formula: CommFactor and sched.Phase both evaluate it.
func CommEfficiency(c float64, p int) float64 {
	if p <= 0 {
		return 0
	}
	return 1 / (1 + float64(c*float64(p-1)))
}

// CommFactor is the simulator's classic efficiency family, the
// CommEfficiency curve with factor C. The simulator's historical job
// mixes (lu, synthetic, stencil) are registered instances of this
// family, which is what keeps their results bit-identical through the
// registry. So is amdahl: Amdahl's law with serial fraction f is
// algebraically this curve with C = f, and the two names differ only in
// parameterization (an assumed serial fraction vs. a measured
// communication factor).
type CommFactor struct {
	// model is the registered name that built this instance ("lu",
	// "synthetic", "stencil", "amdahl").
	model string
	// C is the communication/imbalance factor.
	C float64
	Costs
}

// Comm builds a CommFactor of the given registered family name with an
// already-computed factor — the constructor callers use when C is
// already known (tests, lowering comparisons) without re-deriving it.
func Comm(model string, c float64) CommFactor {
	return CommFactor{model: model, C: c}
}

// Name implements AppModel.
func (m CommFactor) Name() string { return m.model }

// Efficiency implements AppModel.
func (m CommFactor) Efficiency(work float64, nodes int) float64 {
	return CommEfficiency(m.C, nodes)
}

// Rate implements AppModel, the expression float64(p)·eff(p) of
// sched.Phase.Rate.
func (m CommFactor) Rate(work float64, nodes int) float64 {
	return float64(nodes) * m.Efficiency(work, nodes)
}

// LUPhase returns the model of LU iteration k of blocks total: the
// communication factor rises inversely with the remaining block count,
// matching the measured efficiency decay. This is the one definition of
// the LU factor: cluster.LUProfile takes its phases' Comm from here.
func LUPhase(blocks, k int) CommFactor {
	rem := float64(blocks - k)
	return CommFactor{model: "lu", C: 0.08 + 0.25/math.Max(rem, 1)}
}

// newLU is the registry factory for one LU iteration; the scenario layer
// uses LUPhase directly (the factor varies per phase).
func newLU(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "lu", "blocks", "k")
	if err != nil {
		return nil, err
	}
	blocks := int(math.Round(p.Float("blocks", 8)))
	k := int(math.Round(p.Float("k", 0)))
	if blocks < 1 {
		return nil, fmt.Errorf("appmodel: lu blocks=%d must be >= 1", blocks)
	}
	if k < 0 || k >= blocks {
		return nil, fmt.Errorf("appmodel: lu iteration k=%d outside [0, %d)", k, blocks)
	}
	m := LUPhase(blocks, k)
	m.Costs = c
	return m, nil
}

// newSynthetic registers the synthetic mix's uniform-phase model: the
// communication factor is taken verbatim.
func newSynthetic(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "synthetic", "comm")
	if err != nil {
		return nil, err
	}
	comm := p.Float("comm", 0)
	if comm < 0 {
		return nil, fmt.Errorf("appmodel: synthetic comm=%g must be >= 0", comm)
	}
	return CommFactor{model: "synthetic", C: comm, Costs: c}, nil
}

// StencilWork is the serial work of one Jacobi heat-diffusion sweep
// over an n×n grid: the 5-flops-per-cell pass at the given node speed.
// flops <= 0 selects the paper's UltraSparc II calibration (63e6). The
// expressions mirror the scenario layer's historical stencilProfile
// bit-for-bit; the scenario layer's stencil mix uses this same function
// so work and comm can never drift apart.
func StencilWork(n int, flops float64) float64 {
	if flops <= 0 {
		flops = 63e6
	}
	return 5 * float64(n) * float64(n) / flops
}

// StencilComm derives the communication factor of the same sweep: the
// ratio of one band's halo exchange (two n-row messages over the
// paper's Fast Ethernet, 100 µs + 8n/12.5e6 s each) to its share of the
// compute.
func StencilComm(n int, flops float64) float64 {
	halo := 2 * (100e-6 + 8*float64(n)/12.5e6)
	return halo / StencilWork(n, flops)
}

// newStencil registers the stencil mix's model, parameterized by the
// grid size and per-node flops rate.
func newStencil(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "stencil", "grid_n", "flops")
	if err != nil {
		return nil, err
	}
	n := int(math.Round(p.Float("grid_n", 512)))
	if n < 1 {
		return nil, fmt.Errorf("appmodel: stencil grid_n=%d must be >= 1", n)
	}
	flops := p.Float("flops", 0)
	if flops < 0 {
		return nil, fmt.Errorf("appmodel: stencil flops=%g must be >= 0 (0 = paper calibration)", flops)
	}
	return CommFactor{model: "stencil", C: StencilComm(n, flops), Costs: c}, nil
}

// newAmdahl registers Amdahl's law with serial fraction f as the
// comm-factor curve with C = f.
func newAmdahl(p Params) (AppModel, error) {
	c, err := costsFromParams(p, "amdahl", "f")
	if err != nil {
		return nil, err
	}
	f := p.Float("f", 0.05)
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("appmodel: amdahl serial fraction f=%g outside [0, 1]", f)
	}
	return CommFactor{model: "amdahl", C: f, Costs: c}, nil
}
