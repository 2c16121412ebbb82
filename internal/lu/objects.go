// Package lu implements the paper's test application (§5–6): a parallel
// block LU factorization with partial pivoting expressed as a DPS flow
// graph, in every variant the paper evaluates:
//
//   - the basic flow graph (merge–split barriers between iterations),
//   - the pipelined flow graph P (stream operations (c) and (f)),
//   - flow control FC (a credit window on the multiplication requests),
//   - parallel sub-block multiplication PM (the Fig. 7 sub-graph), and
//   - dynamic removal of multiplication threads at iteration boundaries
//     (the node deallocation experiments of §8).
//
// The same application code runs on the virtual cluster testbed
// ("Measurement"), on the simulator platform ("Prediction"), in direct
// execution (real kernels, wall-clock timing), in PDEXEC (modeled
// durations) and in PDEXEC NOALLOC (no payload allocation), reproducing
// the whole §7–8 methodology.
package lu

import (
	"dpsim/internal/linalg"
	"dpsim/internal/serial"
	"dpsim/internal/transport"
)

// Seed bootstraps the factorization: its arrival at the init split starts
// iteration 0.
type Seed struct{}

// Wire implements dps.DataObject.
func (Seed) Wire(s serial.Stream) { want(s, 0xB10C) }

// u32 states a non-negative int field as a u32.
func u32(s serial.Stream, v int) int { return int(s.U32(uint32(v))) }

// want states a u32 whose value the fields stated before it fix: decoding
// fails unless the wire holds v.
func want(s serial.Stream, v int) {
	if got := u32(s, v); got != v {
		s.Failf("lu: wire holds %d, want %d", got, v)
	}
}

// header states the envelope common to LU data objects: object tag,
// iteration and first block/tile coordinate. The object states its second
// coordinate (0 when it has none) next.
func header(s serial.Stream, tag uint8, iter, a int) (int, int) {
	if got := s.U8(tag); got != tag {
		s.Failf("lu: wire tag %d, want %d", got, tag)
	}
	return u32(s, iter), u32(s, a)
}

// matrix states a rows×cols matrix: both dimensions, then a u64 count and
// that many values. A nil matrix (NOALLOC mode) still declares its logical
// size so the counting serializer reports the true wire footprint.
// Decoding returns the dimensions it read and a compact matrix.
func matrix(s serial.Stream, m *linalg.Mat, rows, cols int) (*linalg.Mat, int, int) {
	rows, cols = u32(s, rows), u32(s, cols)
	n := rows * cols
	if got := s.U64(uint64(n)); got != uint64(rows)*uint64(cols) {
		s.Failf("lu: matrix payload %d != %dx%d", got, rows, cols)
	}
	switch {
	case m == nil: // NOALLOC, or decoding
		if a := s.F64s(nil, n); a != nil {
			m = &linalg.Mat{R: rows, C: cols, Stride: cols, A: a}
		}
	case m.Stride == m.C:
		s.F64s(m.A[:n], n)
	default: // a non-compact view, encoded row by row
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				s.F64(m.At(i, j))
			}
		}
	}
	return m, rows, cols
}

// square states an n×n matrix; decoding returns n and fails on any other
// shape.
func square(s serial.Stream, m *linalg.Mat, n int) (*linalg.Mat, int) {
	m, rows, cols := matrix(s, m, n, n)
	if rows != cols {
		s.Failf("lu: %dx%d matrix, want a square one", rows, cols)
	}
	return m, rows
}

// shaped states a matrix whose dimensions the object stated before it;
// decoding fails unless the wire repeats them.
func shaped(s serial.Stream, m *linalg.Mat, rows, cols int) *linalg.Mat {
	m, r, c := matrix(s, m, rows, cols)
	if r != rows || c != cols {
		s.Failf("lu: %dx%d matrix, want %dx%d", r, c, rows, cols)
	}
	return m
}

// TrsmReq is operation (b)'s input: iteration k's L11 block and pivot
// vector, sent to the owner of column block j to solve the triangular
// system and perform row flipping (paper step 2).
type TrsmReq struct {
	Iter  int
	Block int
	R     int
	// L11 is the packed r×r LU block (unit-lower L + upper U11); nil in
	// NOALLOC mode.
	L11 *linalg.Mat
	// Piv holds the panel pivots (panel-local indices); nil in NOALLOC.
	Piv []int
}

// Wire implements dps.DataObject.
func (o *TrsmReq) Wire(s serial.Stream) {
	o.Iter, o.Block = header(s, 1, o.Iter, o.Block)
	want(s, 0)
	o.L11, o.R = square(s, o.L11, o.R)
	want(s, o.R)
	o.Piv = s.Ints(o.Piv, o.R)
}

// TrsmDone carries the computed T12 block of column block j back to the
// stream operation (c) that assembles multiplication requests.
type TrsmDone struct {
	Iter  int
	Block int
	R     int
	T12   *linalg.Mat // r×r; nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *TrsmDone) Wire(s serial.Stream) {
	o.Iter, o.Block = header(s, 2, o.Iter, o.Block)
	want(s, 0)
	o.T12, o.R = square(s, o.T12, o.R)
}

// MultReq is operation (d)'s input: "two matrix blocks of size r x r"
// (paper §5) — the tile of L21 and the T12 of the destination block.
type MultReq struct {
	Iter  int
	Tile  int // row-tile index within L21 (0-based below the panel)
	Block int // destination column block
	R     int
	L21   *linalg.Mat // r×r; nil in NOALLOC
	T12   *linalg.Mat // r×r; nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *MultReq) Wire(s serial.Stream) {
	o.Iter, o.Tile = header(s, 3, o.Iter, o.Tile)
	o.Block = u32(s, o.Block)
	o.L21, o.R = square(s, o.L21, o.R)
	o.T12 = shaped(s, o.T12, o.R, o.R)
}

// MultRes is one multiplied r×r tile, routed to the owner of the
// destination block for subtraction (operation (e)).
type MultRes struct {
	Iter  int
	Tile  int
	Block int
	R     int
	Prod  *linalg.Mat // r×r; nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *MultRes) Wire(s serial.Stream) {
	o.Iter, o.Tile = header(s, 4, o.Iter, o.Tile)
	o.Block = u32(s, o.Block)
	o.Prod, o.R = square(s, o.Prod, o.R)
}

// TileDone notifies the next iteration's stream (f) that one tile of one
// column block finished its update.
type TileDone struct {
	Iter  int
	Tile  int
	Block int
}

// Wire implements dps.DataObject.
func (o *TileDone) Wire(s serial.Stream) {
	o.Iter, o.Tile = header(s, 5, o.Iter, o.Tile)
	o.Block = u32(s, o.Block)
}

// FlipReq asks the owner of an earlier column block (j < k) to apply
// iteration k's row exchanges to its stored factors (operation (g)).
type FlipReq struct {
	Iter  int
	Block int
	R     int
	Piv   []int // nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *FlipReq) Wire(s serial.Stream) {
	o.Iter, o.Block = header(s, 6, o.Iter, o.Block)
	want(s, 0)
	o.R = u32(s, o.R)
	o.Piv = s.Ints(o.Piv, o.R)
}

// FlipDone is the row-exchange completion notification collected by the
// termination merge (operation (h)).
type FlipDone struct {
	Iter  int
	Block int
}

// Wire implements dps.DataObject.
func (o *FlipDone) Wire(s serial.Stream) {
	o.Iter, o.Block = header(s, 7, o.Iter, o.Block)
	want(s, 0)
}

// PMReq is one sub-block multiplication of the parallel multiplication
// flow graph (paper Fig. 7): an s×r row strip of L21 times an r×s column
// strip of T12.
type PMReq struct {
	Iter  int
	Tile  int
	Block int
	Row   int // strip row index
	Col   int // strip column index
	S     int // strip width s
	R     int
	ARow  *linalg.Mat // s×r; nil in NOALLOC
	BCol  *linalg.Mat // r×s; nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *PMReq) Wire(s serial.Stream) {
	o.Iter, o.Tile = header(s, 8, o.Iter, o.Tile)
	o.Block, o.Row, o.Col = u32(s, o.Block), u32(s, o.Row), u32(s, o.Col)
	o.ARow, o.S, o.R = matrix(s, o.ARow, o.S, o.R)
	o.BCol = shaped(s, o.BCol, o.R, o.S)
}

// PMRes is one s×s product strip returned to the assembling merge
// (operation (f) of Fig. 7).
type PMRes struct {
	Iter  int
	Tile  int
	Block int
	Row   int
	Col   int
	S     int
	Prod  *linalg.Mat // s×s; nil in NOALLOC
}

// Wire implements dps.DataObject.
func (o *PMRes) Wire(s serial.Stream) {
	o.Iter, o.Tile = header(s, 9, o.Iter, o.Tile)
	o.Block, o.Row, o.Col = u32(s, o.Block), u32(s, o.Row), u32(s, o.Col)
	o.Prod, o.S = square(s, o.Prod, o.S)
}

// RegisterCodec registers every LU data object with a transport codec so
// the factorization can run on the real TCP runtime.
func RegisterCodec(c *transport.Codec) {
	c.Register(1, func() serial.Object { return &Seed{} })
	c.Register(2, func() serial.Object { return &TrsmReq{} })
	c.Register(3, func() serial.Object { return &TrsmDone{} })
	c.Register(4, func() serial.Object { return &MultReq{} })
	c.Register(5, func() serial.Object { return &MultRes{} })
	c.Register(6, func() serial.Object { return &TileDone{} })
	c.Register(7, func() serial.Object { return &FlipDone{} })
	c.Register(8, func() serial.Object { return &FlipReq{} })
	c.Register(9, func() serial.Object { return &PMReq{} })
	c.Register(10, func() serial.Object { return &PMRes{} })
}
