// Package stencil implements a second DPS application beside the LU
// factorization: an iterative Jacobi heat-diffusion solver on an n×n grid
// decomposed into horizontal bands. Each iteration exchanges halo rows
// between neighboring bands — the paper's §2 example of "communication
// patterns such as neighborhood exchanges ... specified by using relative
// thread indices" — computes the 5-point stencil update, and reduces the
// global residual.
//
// Flow graph, unrolled per iteration t (all pairs validated by dps):
//
//	controller_t (split, master)
//	   └─► bandCtl_t (split, band j)          one instance per band
//	          └─► haloFetch_t (leaf, band j±1) relative-index routing
//	                 └─► bandGather_t (merge, band j): collects the halo
//	                     rows, runs the Jacobi update, posts the band
//	                     residual
//	                        └─► reduce_t (merge, master): global residual,
//	                            seeds controller_{t+1}
//
// Like the LU application, the same code runs on the simulator platforms
// (timing studies, PDEXEC/NOALLOC) and with real computations (correctness
// against a serial reference).
package stencil

import (
	"fmt"
	"math"

	"dpsim/internal/core"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
	"dpsim/internal/serial"
)

// Config sizes the solver.
type Config struct {
	// N is the grid dimension (rows = cols). Rows split evenly over Bands.
	N int
	// Bands is the number of horizontal bands (worker threads).
	Bands int
	// Nodes hosts the band threads (round-robin).
	Nodes int
	// Iterations is the number of Jacobi sweeps.
	Iterations int
	// FlopsPerSec calibrates the compute cost model (default 63e6, the
	// UltraSparc node of the LU experiments).
	FlopsPerSec float64
}

func (c *Config) fill() error {
	if c.N <= 0 || c.Bands <= 0 || c.Nodes <= 0 || c.Iterations <= 0 {
		return fmt.Errorf("stencil: N, Bands, Nodes, Iterations must be positive")
	}
	if c.Bands < 2 {
		return fmt.Errorf("stencil: need at least 2 bands for a halo exchange")
	}
	if c.N%c.Bands != 0 {
		return fmt.Errorf("stencil: bands %d must divide n %d", c.Bands, c.N)
	}
	if c.FlopsPerSec == 0 {
		c.FlopsPerSec = 63e6
	}
	return nil
}

// --- data objects ---

// IterSeed starts iteration t.
type IterSeed struct{ Iter int }

// MarshalDPS implements dps.DataObject.
func (o *IterSeed) MarshalDPS(w serial.Writer) { w.U32(uint32(o.Iter)) }

// BandIter triggers band j's halo requests for iteration t.
type BandIter struct{ Iter, Band int }

// MarshalDPS implements dps.DataObject.
func (o *BandIter) MarshalDPS(w serial.Writer) {
	w.U32(uint32(o.Iter))
	w.U32(uint32(o.Band))
}

// HaloRequest asks neighbor band From±1 for the row facing band For.
type HaloRequest struct {
	Iter int
	For  int // requesting band (halo destination)
	From int // band that owns the row
}

// MarshalDPS implements dps.DataObject.
func (o *HaloRequest) MarshalDPS(w serial.Writer) {
	w.U32(uint32(o.Iter))
	w.U32(uint32(o.For))
	w.U32(uint32(o.From))
}

// HaloRow carries one boundary row to the requesting band.
type HaloRow struct {
	Iter int
	For  int
	From int
	N    int
	Row  []float64 // nil in NOALLOC
}

// MarshalDPS implements dps.DataObject.
func (o *HaloRow) MarshalDPS(w serial.Writer) {
	w.U32(uint32(o.Iter))
	w.U32(uint32(o.For))
	w.U32(uint32(o.From))
	w.F64s(o.Row, o.N)
}

// BandResidual reports one band's squared-residual contribution.
type BandResidual struct {
	Iter int
	Band int
	Sum  float64
}

// MarshalDPS implements dps.DataObject.
func (o *BandResidual) MarshalDPS(w serial.Writer) {
	w.U32(uint32(o.Iter))
	w.U32(uint32(o.Band))
	w.F64(o.Sum)
}

// --- application ---

// App is a constructed stencil flow graph.
type App struct {
	Cfg    Config
	Graph  *dps.Graph
	Master *dps.Collection
	Bands  *dps.Collection
	Entry  *dps.Op

	rowsPerBand int
	residuals   []float64 // per-iteration global residual (real mode)
}

func bandKey(j int) string { return fmt.Sprintf("band:%d", j) }

// updateCost returns the modeled duration of one band's Jacobi sweep:
// 5 flops per interior cell.
func (a *App) updateCost() eventq.Duration {
	cells := float64(a.rowsPerBand) * float64(a.Cfg.N)
	return eventq.DurationOf(5 * cells / a.Cfg.FlopsPerSec)
}

// extractCost returns the modeled duration of copying one halo row.
func (a *App) extractCost() eventq.Duration {
	return eventq.DurationOf(2 * float64(a.Cfg.N) / a.Cfg.FlopsPerSec)
}

// SerialWork returns the single-node compute time of one iteration.
func (a *App) SerialWork() eventq.Duration {
	return eventq.Duration(a.Cfg.Bands) * a.updateCost()
}

// Build constructs the unrolled flow graph.
func Build(cfg Config) (*App, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := &App{Cfg: cfg, rowsPerBand: cfg.N / cfg.Bands, residuals: make([]float64, cfg.Iterations)}
	a.Master = dps.NewCollection("master", 1, cfg.Nodes)
	a.Bands = dps.NewCollection("bands", cfg.Bands, cfg.Nodes)
	g := dps.NewGraph(fmt.Sprintf("jacobi-%d-b%d", cfg.N, cfg.Bands))
	a.Graph = g

	controllers := make([]*dps.Op, cfg.Iterations)
	for t := cfg.Iterations - 1; t >= 0; t-- {
		t := t
		bandCtl := g.Split(fmt.Sprintf("bandCtl[%d]", t), a.Bands, a.bandCtl())
		haloFetch := g.Leaf(fmt.Sprintf("haloFetch[%d]", t), a.Bands, a.haloFetch())
		bandGather := g.Merge(fmt.Sprintf("bandGather[%d]", t), a.Bands, func(first dps.DataObject) dps.MergeState {
			return &gatherState{a: a}
		})
		reduce := g.Merge(fmt.Sprintf("reduce[%d]", t), a.Master, func(dps.DataObject) dps.MergeState {
			var next *dps.Op
			if t+1 < cfg.Iterations {
				next = controllers[t+1]
			}
			return &reduceState{a: a, iter: t, hasNext: next != nil}
		})
		controller := g.Split(fmt.Sprintf("controller[%d]", t), a.Master, func(ctx dps.Ctx, in dps.DataObject) {
			seed := in.(*IterSeed)
			ctx.Phase(fmt.Sprintf("iter:%d", seed.Iter))
			for j := 0; j < cfg.Bands; j++ {
				ctx.Post(&BandIter{Iter: seed.Iter, Band: j})
			}
		})
		controllers[t] = controller

		// controller → bandCtl, routed to the band itself.
		ctlEdge := g.Connect(controller, bandCtl, func(r dps.Routing) int {
			return r.Obj.(*BandIter).Band
		})
		// bandCtl → haloFetch: neighborhood exchange, routed by relative
		// thread index (the row owner is From = For ± 1).
		fetchEdge := g.Connect(bandCtl, haloFetch, func(r dps.Routing) int {
			return r.Obj.(*HaloRequest).From
		})
		g.Connect(haloFetch, bandGather, nil)
		g.Connect(bandGather, reduce, nil)
		if t+1 < cfg.Iterations {
			// reduce's Finish seeds the next controller on the master.
			g.Connect(reduce, controllers[t+1], func(dps.Routing) int { return 0 })
		}
		g.PairOps(controller, reduce, dps.FirstThread, ctlEdge)
		// The instance aggregates on the requesting band (the first
		// posted object is the HaloRequest itself).
		g.PairOps(bandCtl, bandGather, func(first dps.DataObject, _ int) int {
			return first.(*HaloRequest).For
		}, fetchEdge)
	}
	a.Entry = controllers[0]
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("stencil: graph construction bug: %w", err)
	}
	return a, nil
}

// bandCtl posts the band's halo requests to its neighbors.
func (a *App) bandCtl() dps.SplitFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		bi := in.(*BandIter)
		// Edge bands have one neighbor, interior bands two; the pair's
		// per-instance accounting adapts to the posted count.
		for _, from := range []int{bi.Band - 1, bi.Band + 1} {
			if from < 0 || from >= a.Cfg.Bands {
				continue
			}
			ctx.Post(&HaloRequest{Iter: bi.Iter, For: bi.Band, From: from})
		}
	}
}

// haloFetch extracts the boundary row facing the requesting band.
func (a *App) haloFetch() dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*HaloRequest)
		var row []float64
		ctx.Compute("halo-extract", a.extractCost(), func() {
			grid := ctx.Store()[bandKey(req.From)].(*band)
			if req.From < req.For {
				row = append([]float64(nil), grid.lastRow()...)
			} else {
				row = append([]float64(nil), grid.firstRow()...)
			}
		})
		if row == nil && !ctx.NoAlloc() {
			row = make([]float64, a.Cfg.N)
		}
		ctx.Post(&HaloRow{Iter: req.Iter, For: req.For, From: req.From, N: a.Cfg.N, Row: row})
	}
}

// gatherState collects a band's halo rows and runs the Jacobi update.
type gatherState struct {
	a     *App
	iter  int
	band  int
	upper []float64
	lower []float64
	got   bool
}

func (s *gatherState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	h := in.(*HaloRow)
	s.iter, s.band, s.got = h.Iter, h.For, true
	if h.From < h.For {
		s.upper = h.Row
	} else {
		s.lower = h.Row
	}
}

func (s *gatherState) Finish(ctx dps.Ctx) {
	a := s.a
	var residual float64
	ctx.Compute("jacobi-update", a.updateCost(), func() {
		grid := ctx.Store()[bandKey(s.band)].(*band)
		residual = grid.update(s.upper, s.lower)
	})
	ctx.Post(&BandResidual{Iter: s.iter, Band: s.band, Sum: residual})
}

// reduceState sums band residuals and seeds the next iteration.
type reduceState struct {
	a       *App
	iter    int
	hasNext bool
	sum     float64
}

func (s *reduceState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	s.sum += in.(*BandResidual).Sum
}

func (s *reduceState) Finish(ctx dps.Ctx) {
	s.a.residuals[s.iter] = math.Sqrt(s.sum)
	if s.hasNext {
		ctx.Post(&IterSeed{Iter: s.iter + 1})
	}
}

// --- band state (thread-local grid rows) ---

// band holds one band's rows plus fixed boundary conditions.
type band struct {
	n, rows  int
	cur, nxt []float64
}

func (b *band) at(g []float64, i, j int) float64 { return g[i*b.n+j] }
func (b *band) firstRow() []float64              { return b.cur[:b.n] }
func (b *band) lastRow() []float64               { return b.cur[(b.rows-1)*b.n:] }

// update performs one Jacobi sweep given the neighbor halo rows (nil at
// the physical boundaries) and returns the squared residual contribution.
func (b *band) update(upper, lower []float64) float64 {
	var sum float64
	rowAbove := func(i int) []float64 {
		if i > 0 {
			return b.cur[(i-1)*b.n : i*b.n]
		}
		return upper
	}
	rowBelow := func(i int) []float64 {
		if i < b.rows-1 {
			return b.cur[(i+1)*b.n : (i+2)*b.n]
		}
		return lower
	}
	for i := 0; i < b.rows; i++ {
		above, below := rowAbove(i), rowBelow(i)
		for j := 0; j < b.n; j++ {
			old := b.at(b.cur, i, j)
			if j == 0 || j == b.n-1 || (above == nil) || (below == nil) {
				// Dirichlet boundary: value held fixed.
				b.nxt[i*b.n+j] = old
				continue
			}
			v := 0.25 * (above[j] + below[j] + b.at(b.cur, i, j-1) + b.at(b.cur, i, j+1))
			b.nxt[i*b.n+j] = v
			d := v - old
			sum += d * d
		}
	}
	b.cur, b.nxt = b.nxt, b.cur
	return sum
}

// --- driving helpers ---

// Prepare seeds the band stores with a deterministic initial grid (hot
// left wall, random interior) and returns a full copy for the serial
// reference. store is a simulation engine's or the parallel runtime's
// Store.
func (a *App) Prepare(store func(*dps.Collection, int) dps.Store, seed uint64) [][]float64 {
	src := rng.New(seed)
	full := make([][]float64, a.Cfg.N)
	for i := range full {
		full[i] = make([]float64, a.Cfg.N)
		for j := range full[i] {
			switch {
			case j == 0:
				full[i][j] = 100
			case j == a.Cfg.N-1 || i == 0 || i == a.Cfg.N-1:
				full[i][j] = 0
			default:
				full[i][j] = src.Uniform(0, 1)
			}
		}
	}
	for b0 := 0; b0 < a.Cfg.Bands; b0++ {
		bd := &band{
			n:    a.Cfg.N,
			rows: a.rowsPerBand,
			cur:  make([]float64, a.rowsPerBand*a.Cfg.N),
			nxt:  make([]float64, a.rowsPerBand*a.Cfg.N),
		}
		for i := 0; i < a.rowsPerBand; i++ {
			copy(bd.cur[i*a.Cfg.N:(i+1)*a.Cfg.N], full[b0*a.rowsPerBand+i])
		}
		store(a.Bands, b0)[bandKey(b0)] = bd
	}
	out := make([][]float64, len(full))
	for i := range full {
		out[i] = append([]float64(nil), full[i]...)
	}
	return out
}

// Start injects the first iteration seed.
func (a *App) Start(eng *core.Engine) {
	eng.Inject(a.Entry, 0, &IterSeed{Iter: 0})
}

// Assemble reads the grid back from the band stores; store is as for
// Prepare.
func (a *App) Assemble(store func(*dps.Collection, int) dps.Store) [][]float64 {
	out := make([][]float64, a.Cfg.N)
	for b0 := 0; b0 < a.Cfg.Bands; b0++ {
		bd := store(a.Bands, b0)[bandKey(b0)].(*band)
		for i := 0; i < a.rowsPerBand; i++ {
			out[b0*a.rowsPerBand+i] = append([]float64(nil), bd.cur[i*a.Cfg.N:(i+1)*a.Cfg.N]...)
		}
	}
	return out
}

// Residuals returns the per-iteration global residuals (real mode only).
func (a *App) Residuals() []float64 { return a.residuals }

// SerialReference runs the same Jacobi sweeps single-threaded on a full
// grid copy (the correctness oracle).
func SerialReference(grid [][]float64, iterations int) [][]float64 {
	n := len(grid)
	cur := make([][]float64, n)
	nxt := make([][]float64, n)
	for i := range grid {
		cur[i] = append([]float64(nil), grid[i]...)
		nxt[i] = make([]float64, n)
	}
	for t := 0; t < iterations; t++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == 0 || i == n-1 || j == 0 || j == n-1 {
					nxt[i][j] = cur[i][j]
					continue
				}
				nxt[i][j] = 0.25 * (cur[i-1][j] + cur[i+1][j] + cur[i][j-1] + cur[i][j+1])
			}
		}
		cur, nxt = nxt, cur
	}
	return cur
}
