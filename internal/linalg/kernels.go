package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when partial pivoting cannot find a usable pivot.
var ErrSingular = errors.New("linalg: matrix is numerically singular")

// Gemm computes C = alpha*A*B + beta*C. Shapes must conform:
// A is m×k, B is k×n, C is m×n. The kernel uses ikj ordering so the inner
// loop streams rows of B and C.
func Gemm(alpha float64, a, b *Mat, beta float64, c *Mat) {
	if a.C != b.R || a.R != c.R || b.C != c.C {
		panic(fmt.Sprintf("linalg: gemm shape mismatch %dx%d * %dx%d -> %dx%d",
			a.R, a.C, b.R, b.C, c.R, c.C))
	}
	m, k, n := a.R, a.C, b.C
	for i := 0; i < m; i++ {
		ci := c.A[i*c.Stride : i*c.Stride+n]
		if beta != 1 {
			if beta == 0 {
				for j := range ci {
					ci[j] = 0
				}
			} else {
				for j := range ci {
					ci[j] *= beta
				}
			}
		}
		ai := a.A[i*a.Stride : i*a.Stride+k]
		for p := 0; p < k; p++ {
			v := alpha * ai[p]
			if v == 0 {
				continue
			}
			bp := b.A[p*b.Stride : p*b.Stride+n]
			for j := 0; j < n; j++ {
				ci[j] += v * bp[j]
			}
		}
	}
}

// MulSub computes C -= A*B, the update used in LU step 3 (B - L21·T12).
func MulSub(a, b, c *Mat) { Gemm(-1, a, b, 1, c) }

// Mul returns A*B in a new matrix.
func Mul(a, b *Mat) *Mat {
	c := NewMat(a.R, b.C)
	Gemm(1, a, b, 0, c)
	return c
}

// PanelLU factors the m×r panel A in place with partial pivoting
// (paper step 1): A = P^T · [L11; L21] · U11 where U11 is r×r upper
// triangular, L11 is r×r unit lower triangular, L21 is (m-r)×r. On return
// A holds L (unit diagonal implicit) below the diagonal and U on and above
// it; piv[j] records the row swapped with row j.
func PanelLU(a *Mat) ([]int, error) {
	m, r := a.R, a.C
	if r > m {
		panic(fmt.Sprintf("linalg: panel wider (%d) than tall (%d)", r, m))
	}
	piv := make([]int, r)
	for j := 0; j < r; j++ {
		// Pivot: largest magnitude at or below the diagonal in column j.
		p := j
		maxv := math.Abs(a.At(j, j))
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a.At(i, j)); v > maxv {
				maxv, p = v, i
			}
		}
		piv[j] = p
		if maxv == 0 {
			return piv, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, j)
		}
		a.SwapRows(j, p)
		// Scale multipliers and update the trailing panel.
		d := a.At(j, j)
		for i := j + 1; i < m; i++ {
			l := a.At(i, j) / d
			a.Set(i, j, l)
			ri := a.A[i*a.Stride : i*a.Stride+r]
			rj := a.A[j*a.Stride : j*a.Stride+r]
			for t := j + 1; t < r; t++ {
				ri[t] -= l * rj[t]
			}
		}
	}
	return piv, nil
}

// TrsmLowerUnit solves L·X = B in place (B := L⁻¹·B) where L is n×n unit
// lower triangular (strictly-lower entries of l are used; diagonal is
// implicit 1). This is the trsm of paper step 2 computing T12.
func TrsmLowerUnit(l, b *Mat) {
	if l.R != l.C || l.R != b.R {
		panic(fmt.Sprintf("linalg: trsm shape mismatch L %dx%d, B %dx%d", l.R, l.C, b.R, b.C))
	}
	n, cols := l.R, b.C
	for i := 1; i < n; i++ {
		bi := b.A[i*b.Stride : i*b.Stride+cols]
		li := l.A[i*l.Stride : i*l.Stride+i]
		for k := 0; k < i; k++ {
			v := li[k]
			if v == 0 {
				continue
			}
			bk := b.A[k*b.Stride : k*b.Stride+cols]
			for j := 0; j < cols; j++ {
				bi[j] -= v * bk[j]
			}
		}
	}
}

// LU factors the square matrix A in place using unblocked Gaussian
// elimination with partial pivoting (reference implementation). Equivalent
// to PanelLU on a square panel.
func LU(a *Mat) ([]int, error) {
	if a.R != a.C {
		panic("linalg: LU requires a square matrix")
	}
	return PanelLU(a)
}

// BlockedLU factors A in place with block size r, following exactly the
// three recursive steps of the paper (§5):
//
//	step 1: PanelLU of the current m×r panel [A11; A21];
//	step 2: trsm computing T12 = L11⁻¹·A12, after row flipping;
//	step 3: trailing update A' = B − L21·T12, recurse on A'.
//
// It is the serial reference against which the parallel DPS application is
// validated: every flow-graph variant must produce this factorization.
func BlockedLU(a *Mat, r int) ([]int, error) {
	n := a.R
	if a.R != a.C {
		panic("linalg: BlockedLU requires a square matrix")
	}
	if r <= 0 || n%r != 0 {
		return nil, fmt.Errorf("linalg: block size %d must divide n=%d", r, n)
	}
	piv := make([]int, n)
	for k := 0; k < n; k += r {
		m := n - k
		rr := r
		if rr > m {
			rr = m
		}
		panel := a.View(k, k, m, rr)
		p, err := PanelLU(panel)
		if err != nil {
			return nil, fmt.Errorf("block at %d: %w", k, err)
		}
		for j, pj := range p {
			piv[k+j] = k + pj
			// Row flipping on the columns left of the panel (paper op (g))
			// and right of the panel (part of step 2).
			if pj != j {
				if k > 0 {
					left := a.View(k, 0, m, k)
					left.SwapRows(j, pj)
				}
				if k+rr < n {
					right := a.View(k, k+rr, m, n-k-rr)
					right.SwapRows(j, pj)
				}
			}
		}
		if k+rr < n {
			l11 := a.View(k, k, rr, rr)
			a12 := a.View(k, k+rr, rr, n-k-rr)
			TrsmLowerUnit(l11, a12) // step 2: T12
			l21 := a.View(k+rr, k, m-rr, rr)
			b := a.View(k+rr, k+rr, m-rr, n-k-rr)
			MulSub(l21, a12, b) // step 3: B - L21·T12
		}
	}
	return piv, nil
}

// SolveLU solves A·x = b given A's packed LU factors and pivot vector
// (as produced by LU/BlockedLU): apply the row exchanges to b, then
// forward-substitute with unit-lower L and back-substitute with U. It is
// the end-to-end consumer of the distributed factorization.
func SolveLU(lu *Mat, piv []int, b []float64) ([]float64, error) {
	n := lu.R
	if lu.R != lu.C || len(b) != n {
		return nil, fmt.Errorf("linalg: solve shape mismatch %dx%d vs %d", lu.R, lu.C, len(b))
	}
	x := append([]float64(nil), b...)
	for j, p := range piv {
		if p != j {
			x[j], x[p] = x[p], x[j]
		}
	}
	// Forward substitution: L·y = P·b, L unit lower.
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu.A[i*lu.Stride : i*lu.Stride+i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s
	}
	// Back substitution: U·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu.A[i*lu.Stride : i*lu.Stride+n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		d := row[i]
		if d == 0 {
			return nil, fmt.Errorf("%w: zero diagonal at %d", ErrSingular, i)
		}
		x[i] = s / d
	}
	return x, nil
}

// ReconstructLU multiplies the packed LU factors back together and undoes
// the pivoting, returning P^T·L·U which must equal the original matrix.
// Used by correctness tests.
func ReconstructLU(lu *Mat, piv []int) *Mat {
	n := lu.R
	l := NewMat(n, n)
	u := NewMat(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < i; j++ {
			l.Set(i, j, lu.At(i, j))
		}
		for j := i; j < n; j++ {
			u.Set(i, j, lu.At(i, j))
		}
	}
	prod := Mul(l, u)
	// Undo row exchanges in reverse order: A = P^T (L U).
	for j := len(piv) - 1; j >= 0; j-- {
		if piv[j] != j {
			prod.SwapRows(j, piv[j])
		}
	}
	return prod
}

// --- Exact operation counts (drive the testbed and PDEXEC cost models) ---

// GemmFlops returns the floating-point operations of an m×k by k×n
// multiply-accumulate: one multiply and one add per element triple.
func GemmFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// TrsmFlops returns the operations of a unit-lower n×n solve applied to
// n×cols: for each row i, 2·i·cols ops.
func TrsmFlops(n, cols int) float64 {
	return float64(float64(n) * float64(n-1) * float64(cols))
}

// PanelLUFlops returns the operations of PanelLU on an m×r panel:
// per column j, one division per sub-diagonal row plus a rank-1 update of
// the trailing (m-j-1)×(r-j-1) block (2 ops per element), plus the pivot
// search comparisons (counted as 1 op per scanned row). Column j thus
// costs 2(m-1-j)(r-j), and the sum over j < r has the closed form
//
//	(m-1-r)·r(r+1) + r(r+1)(2r+1)/3,
//
// evaluated exactly in int64 and converted once. Summing the per-column
// terms in float64 gives the same value bit for bit while every partial
// sum stays below 2^53, which holds for 1 ≤ r ≤ m with m·r² < 2^52 (any
// panel up to m = r = 2^17); that loop is kept as a test reference.
func PanelLUFlops(m, r int) float64 {
	m64, r64 := int64(m), int64(r)
	tri := r64 * (r64 + 1)
	return float64((m64-1-r64)*tri + tri*(2*r64+1)/3)
}

// RowFlipBytes returns the bytes touched when applying r pivots to an
// m×cols block (two rows read+written per swap, 8 bytes per element).
func RowFlipBytes(r, cols int) float64 {
	return float64(r) * 4 * 8 * float64(cols)
}
