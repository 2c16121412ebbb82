package appmodel

import (
	"fmt"
	"math"
)

func init() {
	Register("lu", newLU)
	Register("synthetic", newSynthetic)
	Register("stencil", newStencil)
}

// CommFactor is the simulator's classic efficiency family: a phase with
// communication/imbalance factor C runs at efficiency
// eff(p) = 1/(1 + C·(p-1)) on p nodes — exactly the curve
// sched.Phase.Efficiency computes from its Comm field. The simulator's
// historical job mixes (lu, synthetic, stencil) are registered instances
// of this family, which is what keeps their results bit-identical
// through the registry: the arithmetic here is expression-for-expression
// the legacy formula.
//
// Note that eff(p) = 1/(1 + C·(p-1)) is algebraically Amdahl's law with
// serial fraction C; the two registered names differ in parameterization
// and intent (a measured communication factor vs. an assumed serial
// fraction), not in shape.
type CommFactor struct {
	// model is the registered name that built this instance ("lu",
	// "synthetic", "stencil").
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

// Efficiency implements AppModel. The expression is kept identical to
// the legacy sched.Phase.Efficiency so attaching the model is
// bit-invisible.
func (m CommFactor) Efficiency(work float64, nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return 1 / (1 + m.C*float64(nodes-1))
}

// Rate implements AppModel, mirroring the legacy sched.Phase.Rate
// expression float64(p)·eff(p) exactly.
func (m CommFactor) Rate(work float64, nodes int) float64 {
	return float64(nodes) * m.Efficiency(work, nodes)
}

// PhaseTime implements AppModel.
func (m CommFactor) PhaseTime(work float64, nodes int) float64 {
	return timeOf(work, m.Rate(work, nodes))
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
