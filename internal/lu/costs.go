package lu

import (
	"fmt"

	"dpsim/internal/eventq"
	"dpsim/internal/linalg"
)

// CostModel converts kernel operation counts into durations on the
// reference node. The defaults are calibrated so that the serial 2592²
// factorization takes ≈185 s, the paper's Table 1 serial reference on a
// 440 MHz UltraSparc II.
type CostModel struct {
	// FlopsPerSec is the reference node's floating-point throughput.
	FlopsPerSec float64
	// MemFactor weights pure memory operations (row flips, subtractions)
	// relative to one flop.
	MemFactor float64
}

// DefaultCostModel returns the UltraSparc II calibration.
func DefaultCostModel() CostModel {
	return CostModel{FlopsPerSec: 63e6, MemFactor: 1.0}
}

func (c CostModel) dur(ops float64) eventq.Duration {
	return eventq.DurationOf(ops / c.FlopsPerSec)
}

// PanelLU returns the duration of the m×r panel factorization.
func (c CostModel) PanelLU(m, r int) eventq.Duration {
	return c.dur(linalg.PanelLUFlops(m, r))
}

// Trsm returns the duration of operation (b): row flipping of the block's
// trailing rows plus the r×r unit-lower solve.
func (c CostModel) Trsm(m, r int) eventq.Duration {
	flip := float64(c.MemFactor * linalg.RowFlipBytes(r, r) / 8)
	return c.dur(linalg.TrsmFlops(r, r) + flip)
}

// Gemm returns the duration of one r×r×r tile multiplication.
func (c CostModel) Gemm(r int) eventq.Duration {
	return c.dur(linalg.GemmFlops(r, r, r))
}

// Sub returns the duration of subtracting one r×r product tile.
func (c CostModel) Sub(r int) eventq.Duration {
	return c.dur(c.MemFactor * 2 * float64(r) * float64(r))
}

// Flip returns the duration of applying r pivots to an earlier block.
func (c CostModel) Flip(r int) eventq.Duration {
	return c.dur(c.MemFactor * linalg.RowFlipBytes(r, r) / 8)
}

// PMMult returns the duration of one s×r×s sub-block multiplication.
func (c CostModel) PMMult(s, r int) eventq.Duration {
	return c.dur(linalg.GemmFlops(s, r, s))
}

// PMAssemble returns the duration of building the r×r result from its s×s
// strips.
func (c CostModel) PMAssemble(r int) eventq.Duration {
	return c.dur(c.MemFactor * float64(r) * float64(r))
}

// Extract returns the duration of copying an r×r operand tile out of a
// stored column block (the (c) stream building a multiplication request).
func (c CostModel) Extract(r int) eventq.Duration {
	return c.dur(c.MemFactor * float64(r) * float64(r))
}

// Keys used for calibration tables; they identify a kernel and its shape
// so measured durations transfer between runs of the same configuration.
func keyLU(m, r int) string   { return fmt.Sprintf("lu:%dx%d", m, r) }
func keyTrsm(r int) string    { return fmt.Sprintf("trsm:%d", r) }
func keyGemm(r int) string    { return fmt.Sprintf("gemm:%d", r) }
func keySub(r int) string     { return fmt.Sprintf("sub:%d", r) }
func keyFlip(r int) string    { return fmt.Sprintf("flip:%d", r) }
func keyPM(s, r int) string   { return fmt.Sprintf("pmmult:%dx%d", s, r) }
func keyPMAsm(r int) string   { return fmt.Sprintf("pmasm:%d", r) }
func keyExtract(r int) string { return fmt.Sprintf("extract:%d", r) }

// kernelKeys holds the keys whose shape the configuration fixes (block
// size r, PM strip width sw), formatted once per Build: the kernels they
// name run on every atomic step.
type kernelKeys struct {
	trsm, extract, gemm, sub, flip string
	pmExtract, pmMult, pmAsm       string
}

func newKernelKeys(r, sw int) kernelKeys {
	return kernelKeys{
		trsm: keyTrsm(r), extract: keyExtract(r), gemm: keyGemm(r), sub: keySub(r), flip: keyFlip(r),
		pmExtract: keyExtract(sw), pmMult: keyPM(sw, r), pmAsm: keyPMAsm(sw),
	}
}

// SerialWork returns the single-node compute time of iteration k (paper
// Fig. 11's per-iteration serial baseline): the panel LU plus, for each of
// the remaining blocks, flip+trsm and the tile multiply/subtract work,
// plus the row flips on earlier blocks.
func SerialWork(c CostModel, n, r, k int) eventq.Duration {
	blocks := n / r
	rem := blocks - k - 1 // blocks right of the panel
	m := n - k*r
	w := c.PanelLU(m, r)
	w += eventq.Duration(rem) * c.Trsm(m, r)
	w += eventq.Duration(rem*rem) * (c.Gemm(r) + c.Sub(r))
	w += eventq.Duration(k) * c.Flip(r)
	return w
}

// TotalSerialWork sums SerialWork over all iterations: the serial running
// time of the whole factorization under the cost model.
func TotalSerialWork(c CostModel, n, r int) eventq.Duration {
	var total eventq.Duration
	for k := 0; k < n/r; k++ {
		total += SerialWork(c, n, r, k)
	}
	return total
}
