package lu

import (
	"fmt"

	"dpsim/internal/core"
	"dpsim/internal/dps"
	"dpsim/internal/linalg"
	"dpsim/internal/rng"
)

// Removal schedules a change of the multiplication-thread allocation:
// after iteration AfterIter (1-based, as the paper labels them), the
// multiplication collection shrinks (or grows) to MultThreads threads.
// Multiplication requests carry both operand tiles, so no data migrates;
// nodes hosting only multiplication threads become free — the paper's
// dynamic node deallocation.
type Removal struct {
	AfterIter   int
	MultThreads int
}

// Config selects the factorization problem and the flow-graph variant.
type Config struct {
	// N is the matrix dimension; R the decomposition block size. R must
	// divide N.
	N, R int
	// Nodes hosts the storage/worker threads (trsm, subtract, panel LU).
	Nodes int
	// Threads is the number of worker threads (default N/R, one column
	// block each); blocks are owned cyclically: owner(j) = j mod Threads.
	Threads int
	// MultThreads sizes the multiplication collection (default Threads).
	MultThreads int
	// MultNodes hosts the multiplication threads (default Nodes). Set
	// larger than Nodes for the paper's removal experiments, where
	// multiplication-only nodes are deallocated mid-run.
	MultNodes int
	// Pipelined selects the paper's pipelined flow graph P: operations
	// (c) and (f) are streams. False gives the basic flow graph, where
	// they behave as merge–split barriers.
	Pipelined bool
	// Window enables DPS flow control (FC) on the multiplication
	// requests with the given credit window (0 disables).
	Window int
	// ParallelMult replaces operation (d) by the Fig. 7 sub-graph (PM):
	// each r×r multiplication is decomposed into sub-block products.
	ParallelMult bool
	// SubBlock is the PM strip width s (default R/2; must divide R).
	SubBlock int
	// Removals schedules multiplication-thread allocation changes.
	Removals []Removal
	// Costs converts operation counts into reference-node durations.
	Costs CostModel
}

func (c *Config) fill() error {
	if c.N <= 0 || c.R <= 0 || c.N%c.R != 0 {
		return fmt.Errorf("lu: block size %d must divide matrix size %d", c.R, c.N)
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("lu: need at least one node")
	}
	if c.Threads == 0 {
		c.Threads = c.N / c.R
	}
	if c.MultThreads == 0 {
		c.MultThreads = c.Threads
	}
	if c.MultNodes == 0 {
		c.MultNodes = c.Nodes
	}
	if c.SubBlock == 0 {
		c.SubBlock = c.R / 2
	}
	if c.ParallelMult && (c.SubBlock <= 0 || c.R%c.SubBlock != 0) {
		return fmt.Errorf("lu: PM strip width %d must divide block size %d", c.SubBlock, c.R)
	}
	if c.Costs.FlopsPerSec == 0 {
		c.Costs = DefaultCostModel()
	}
	for _, rm := range c.Removals {
		if rm.AfterIter < 1 || rm.AfterIter >= c.N/c.R {
			return fmt.Errorf("lu: removal after iteration %d outside 1..%d", rm.AfterIter, c.N/c.R-1)
		}
		if rm.MultThreads < 1 {
			return fmt.Errorf("lu: removal to %d threads", rm.MultThreads)
		}
	}
	return nil
}

// App is a constructed LU factorization flow graph, ready to run on any
// platform.
type App struct {
	Cfg     Config
	Graph   *dps.Graph
	Workers *dps.Collection
	Mults   *dps.Collection
	Init    *dps.Op
	Done    *dps.Op

	blocks int
	keys   kernelKeys
}

// owner returns the worker thread owning column block j.
func (a *App) owner(j int) int { return j % a.Cfg.Threads }

func blockKey(j int) string { return fmt.Sprintf("block:%d", j) }

// Build constructs the flow graph for the configured variant. The graph
// is unrolled per iteration, mirroring the paper's "gray part repeated for
// every column of blocks" (Fig. 5).
func Build(cfg Config) (*App, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := &App{Cfg: cfg, blocks: cfg.N / cfg.R, keys: newKernelKeys(cfg.R, cfg.SubBlock)}
	a.Workers = dps.NewCollection("workers", cfg.Threads, cfg.Nodes)
	a.Mults = dps.NewCollection("mults", cfg.MultThreads, cfg.MultNodes)
	a.Graph = dps.NewGraph(fmt.Sprintf("lu-%dx%d-r%d", cfg.N, cfg.N, cfg.R))
	a.build()
	if err := a.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("lu: graph construction bug: %w", err)
	}
	return a, nil
}

// build wires the unrolled per-iteration operations.
func (a *App) build() {
	g := a.Graph
	B := a.blocks
	cfg := a.Cfg

	a.Done = g.Merge("done", a.Workers, func(dps.DataObject) dps.MergeState {
		return &doneState{}
	})

	// Per-iteration sink ops built in reverse dependency order so each
	// iteration's runner can connect forward.
	nexts := make([]*dps.Op, B-1) // nexts[k] collects iteration k tiles, runs iteration k+1
	colls := make([]*dps.Op, B-1) // colls[k] is operation (c) of iteration k
	trsms := make([]*dps.Op, B-1) // trsms[k] is operation (b)
	subs := make([]*dps.Op, B-1)  // subs[k] is operation (e)
	flips := make([]*dps.Op, B)   // flips[k] is operation (g) of iteration k (k >= 1)

	for k := 0; k < B-1; k++ {
		k := k
		trsms[k] = g.Leaf(fmt.Sprintf("trsm[%d]", k), a.Workers, a.trsmLeaf(k))
		colls[k] = g.Stream(fmt.Sprintf("collect[%d]", k), a.Workers, func(dps.DataObject) dps.MergeState {
			return &collState{a: a, k: k}
		})
		subs[k] = g.Leaf(fmt.Sprintf("sub[%d]", k), a.Workers, a.subLeaf(k))
		nexts[k] = g.Stream(fmt.Sprintf("next[%d]", k), a.Workers, func(dps.DataObject) dps.MergeState {
			return &nextState{a: a, k: k, counts: make(map[int]int)}
		})
	}
	for k := 1; k < B; k++ {
		flips[k] = g.Leaf(fmt.Sprintf("flip[%d]", k), a.Workers, a.flipLeaf())
	}

	// The init split runs iteration 0 on owner(0).
	a.Init = g.Split("init", a.Workers, func(ctx dps.Ctx, in dps.DataObject) {
		st := &iterStart{a: a, k: 0, trsmEdge: 0, flipEdge: -1}
		l11, piv := st.run(ctx)
		for j := 1; j < B; j++ {
			st.postTrsm(ctx, l11, piv, j)
		}
	})

	// Wire each iteration.
	for k := 0; k < B-1; k++ {
		k := k
		runner := a.Init
		if k > 0 {
			runner = nexts[k-1]
		}
		trsmEdge := g.Connect(runner, trsms[k], func(r dps.Routing) int {
			return a.owner(r.Obj.(*TrsmReq).Block)
		})
		g.Connect(trsms[k], colls[k], nil)
		g.PairOps(runner, colls[k], func(dps.DataObject, int) int { return a.owner(k) }, trsmEdge)

		// Multiplication path: plain leaf or the PM sub-graph.
		var multEdge int
		if cfg.ParallelMult {
			pmsplit := g.Split(fmt.Sprintf("pmdist[%d]", k), a.Mults, a.pmSplit(k))
			pmmult := g.Leaf(fmt.Sprintf("pmmult[%d]", k), a.Mults, a.pmMultLeaf())
			pmmerge := g.Merge(fmt.Sprintf("pmmerge[%d]", k), a.Mults, func(first dps.DataObject) dps.MergeState {
				return newPMMergeState(a, first)
			})
			multEdge = g.Connect(colls[k], pmsplit, func(r dps.Routing) int {
				return (r.Seq + k) % r.Width
			})
			pmEdge := g.Connect(pmsplit, pmmult, func(r dps.Routing) int {
				return (r.Seq + r.SrcThread) % r.Width
			})
			g.Connect(pmmult, pmmerge, nil)
			g.Connect(pmmerge, subs[k], func(r dps.Routing) int {
				return a.owner(r.Obj.(*MultRes).Block)
			})
			g.PairOps(pmsplit, pmmerge, func(first dps.DataObject, width int) int {
				req := first.(*PMReq)
				return (req.Tile*31 + req.Block) % width
			}, pmEdge)
		} else {
			mult := g.Leaf(fmt.Sprintf("mult[%d]", k), a.Mults, a.multLeaf())
			multEdge = g.Connect(colls[k], mult, func(r dps.Routing) int {
				return (r.Seq + k) % r.Width
			})
			g.Connect(mult, subs[k], func(r dps.Routing) int {
				return a.owner(r.Obj.(*MultRes).Block)
			})
		}
		g.Connect(subs[k], nexts[k], nil)
		pm := g.PairOps(colls[k], nexts[k], func(dps.DataObject, int) int { return a.owner(k + 1) }, multEdge)
		if cfg.Window > 0 {
			pm.SetWindow(cfg.Window)
		}

		// Row flips of iteration k+1 are posted by nexts[k].
		flipEdge := g.Connect(nexts[k], flips[k+1], func(r dps.Routing) int {
			return a.owner(r.Obj.(*FlipReq).Block)
		})
		g.Connect(flips[k+1], a.Done, nil)
		g.PairOps(nexts[k], a.Done, func(dps.DataObject, int) int { return 0 }, flipEdge)
	}
}

// --- iteration start (operations (a) + request distribution) ---

// iterStart runs the panel LU of iteration k and distributes the trsm and
// flip requests. It executes inside the init split (k = 0) or inside the
// next[k-1] stream (k >= 1), always on owner(k).
type iterStart struct {
	a        *App
	k        int
	trsmEdge int // edge index for TrsmReq posts (-1 if none)
	flipEdge int // edge index for FlipReq posts (-1 if none)
}

// run applies scheduled removals, factors the panel and posts row flips.
// It returns the packed L11 and pivots for the trsm posts.
func (s *iterStart) run(ctx dps.Ctx) (*linalg.Mat, []int) {
	a, k := s.a, s.k
	cfg := a.Cfg
	for _, rm := range cfg.Removals {
		if rm.AfterIter == k {
			a.Mults.Resize(rm.MultThreads)
		}
	}
	ctx.Phase(fmt.Sprintf("iter:%d", k))
	n, r := cfg.N, cfg.R
	m := n - k*r
	var l11 *linalg.Mat
	var piv []int
	ctx.Compute(keyLU(m, r), cfg.Costs.PanelLU(m, r), func() {
		blk := ctx.Store()[blockKey(k)].(*linalg.Mat)
		panel := blk.View(k*r, 0, m, r)
		p, err := linalg.PanelLU(panel)
		if err != nil {
			panic(fmt.Sprintf("lu: iteration %d: %v", k, err))
		}
		piv = p
		l11 = panel.View(0, 0, r, r).Clone()
	})
	if l11 == nil && !ctx.NoAlloc() {
		l11 = linalg.NewMat(r, r)
		piv = make([]int, r)
	}
	if s.flipEdge >= 0 {
		for j := 0; j < k; j++ {
			ctx.PostTo(s.flipEdge, &FlipReq{Iter: k, Block: j, R: r, Piv: piv})
		}
	}
	return l11, piv
}

func (s *iterStart) postTrsm(ctx dps.Ctx, l11 *linalg.Mat, piv []int, j int) {
	ctx.PostTo(s.trsmEdge, &TrsmReq{Iter: s.k, Block: j, R: s.a.Cfg.R, L11: l11, Piv: piv})
}

// --- operation (b): triangular solve + row flipping ---

func (a *App) trsmLeaf(k int) dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*TrsmReq)
		n, r := a.Cfg.N, a.Cfg.R
		var t12 *linalg.Mat
		ctx.Compute(a.keys.trsm, a.Cfg.Costs.Trsm(n-k*r, r), func() {
			blk := ctx.Store()[blockKey(req.Block)].(*linalg.Mat)
			trailing := blk.View(k*r, 0, n-k*r, r)
			trailing.ApplyPivots(req.Piv)
			a12 := blk.View(k*r, 0, r, r)
			linalg.TrsmLowerUnit(req.L11, a12)
			t12 = a12.Clone()
		})
		if t12 == nil && !ctx.NoAlloc() {
			t12 = linalg.NewMat(r, r)
		}
		ctx.Post(&TrsmDone{Iter: k, Block: req.Block, R: r, T12: t12})
	}
}

// --- operation (c): collect T12 blocks, stream multiplication requests ---

type collState struct {
	a        *App
	k        int
	buffered []*TrsmDone // basic graph: barrier until Finish
}

func (s *collState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	td := in.(*TrsmDone)
	if !s.a.Cfg.Pipelined {
		s.buffered = append(s.buffered, td)
		return
	}
	s.emit(ctx, td)
}

func (s *collState) Finish(ctx dps.Ctx) {
	for _, td := range s.buffered {
		s.emit(ctx, td)
	}
	s.buffered = nil
}

// emit builds the multiplication requests of one column block: one per
// L21 row tile, each carrying two r×r operands (paper §5).
func (s *collState) emit(ctx dps.Ctx, td *TrsmDone) {
	a, k := s.a, s.k
	r := a.Cfg.R
	tiles := a.blocks - k - 1
	for i := 0; i < tiles; i++ {
		var l21 *linalg.Mat
		ctx.Compute(a.keys.extract, a.Cfg.Costs.Extract(r), func() {
			blk := ctx.Store()[blockKey(k)].(*linalg.Mat)
			l21 = blk.View((k+1+i)*r, 0, r, r).Clone()
		})
		if l21 == nil && !ctx.NoAlloc() {
			l21 = linalg.NewMat(r, r)
		}
		ctx.Post(&MultReq{Iter: k, Tile: i, Block: td.Block, R: r, L21: l21, T12: td.T12})
	}
}

// --- operation (d): tile multiplication ---

func (a *App) multLeaf() dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*MultReq)
		r := a.Cfg.R
		var prod *linalg.Mat
		ctx.Compute(a.keys.gemm, a.Cfg.Costs.Gemm(r), func() {
			prod = linalg.Mul(req.L21, req.T12)
		})
		if prod == nil && !ctx.NoAlloc() {
			prod = linalg.NewMat(r, r)
		}
		ctx.Post(&MultRes{Iter: req.Iter, Tile: req.Tile, Block: req.Block, R: r, Prod: prod})
	}
}

// --- operations (d') of Fig. 7: parallel sub-block multiplication ---

func (a *App) pmSplit(k int) dps.SplitFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*MultReq)
		r, sw := a.Cfg.R, a.Cfg.SubBlock
		strips := r / sw
		for row := 0; row < strips; row++ {
			for col := 0; col < strips; col++ {
				var aRow, bCol *linalg.Mat
				ctx.Compute(a.keys.pmExtract, a.Cfg.Costs.PMAssemble(sw), func() {
					aRow = req.L21.View(row*sw, 0, sw, r).Clone()
					bCol = req.T12.View(0, col*sw, r, sw).Clone()
				})
				if aRow == nil && !ctx.NoAlloc() {
					aRow = linalg.NewMat(sw, r)
					bCol = linalg.NewMat(r, sw)
				}
				ctx.Post(&PMReq{
					Iter: req.Iter, Tile: req.Tile, Block: req.Block,
					Row: row, Col: col, S: sw, R: r, ARow: aRow, BCol: bCol,
				})
			}
		}
	}
}

func (a *App) pmMultLeaf() dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*PMReq)
		var prod *linalg.Mat
		ctx.Compute(a.keys.pmMult, a.Cfg.Costs.PMMult(req.S, req.R), func() {
			prod = linalg.Mul(req.ARow, req.BCol)
		})
		if prod == nil && !ctx.NoAlloc() {
			prod = linalg.NewMat(req.S, req.S)
		}
		ctx.Post(&PMRes{
			Iter: req.Iter, Tile: req.Tile, Block: req.Block,
			Row: req.Row, Col: req.Col, S: req.S, Prod: prod,
		})
	}
}

// pmMergeState assembles the s×s strips into the full r×r product
// (operation (f) of Fig. 7) and forwards it as a plain MultRes.
type pmMergeState struct {
	a    *App
	meta PMRes
	acc  *linalg.Mat
}

func newPMMergeState(a *App, first dps.DataObject) dps.MergeState {
	s := &pmMergeState{a: a}
	if first != nil {
		res := first.(*PMRes)
		s.meta = *res
	}
	return s
}

func (s *pmMergeState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	res := in.(*PMRes)
	r := s.a.Cfg.R
	ctx.Compute(s.a.keys.pmAsm, s.a.Cfg.Costs.PMAssemble(res.S), func() {
		if s.acc == nil {
			s.acc = linalg.NewMat(r, r)
		}
		dst := s.acc.View(res.Row*res.S, res.Col*res.S, res.S, res.S)
		dst.CopyFrom(res.Prod)
	})
}

func (s *pmMergeState) Finish(ctx dps.Ctx) {
	prod := s.acc
	if prod == nil && !ctx.NoAlloc() {
		prod = linalg.NewMat(s.a.Cfg.R, s.a.Cfg.R)
	}
	ctx.Post(&MultRes{Iter: s.meta.Iter, Tile: s.meta.Tile, Block: s.meta.Block, R: s.a.Cfg.R, Prod: prod})
}

// --- operation (e): subtraction ---

func (a *App) subLeaf(k int) dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		res := in.(*MultRes)
		r := a.Cfg.R
		ctx.Compute(a.keys.sub, a.Cfg.Costs.Sub(r), func() {
			blk := ctx.Store()[blockKey(res.Block)].(*linalg.Mat)
			tile := blk.View((k+1+res.Tile)*r, 0, r, r)
			for i := 0; i < r; i++ {
				for j := 0; j < r; j++ {
					tile.Set(i, j, tile.At(i, j)-res.Prod.At(i, j))
				}
			}
		})
		ctx.Post(&TileDone{Iter: k, Tile: res.Tile, Block: res.Block})
	}
}

// --- operation (f): collect tile completions, start the next iteration ---

type nextState struct {
	a      *App
	k      int // iteration whose tiles are being collected
	counts map[int]int
	start  *iterStart
	l11    *linalg.Mat
	piv    []int
	began  bool
	ready  []int // blocks completed before the next panel LU ran
}

func (s *nextState) tilesPerBlock() int { return s.a.blocks - s.k - 1 }

func (s *nextState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	td := in.(*TileDone)
	s.counts[td.Block]++
	if !s.a.Cfg.Pipelined {
		return // barrier: everything happens in Finish
	}
	if s.counts[td.Block] == s.tilesPerBlock() {
		s.blockComplete(ctx, td.Block)
	}
}

// blockComplete implements the paper's (f): "perform next level LU
// factorization as soon as the first column block is complete, and stream
// out triangular system solve requests as other column blocks complete".
func (s *nextState) blockComplete(ctx dps.Ctx, j int) {
	next := s.k + 1
	if j == next {
		s.begin(ctx)
		for _, rj := range s.ready {
			s.start.postTrsm(ctx, s.l11, s.piv, rj)
		}
		s.ready = nil
		return
	}
	if s.began {
		s.start.postTrsm(ctx, s.l11, s.piv, j)
		return
	}
	s.ready = append(s.ready, j)
}

// begin runs the next iteration's panel LU and flips. Out-edge indices on
// a next[k] stream follow construction order: the flip edge (created while
// wiring iteration k) is edge 0; the trsm edge (created while wiring
// iteration k+1, where next[k] is the runner) is edge 1 and absent on the
// last stream.
func (s *nextState) begin(ctx dps.Ctx) {
	next := s.k + 1
	trsmEdge := 1
	if next >= s.a.blocks-1 {
		trsmEdge = -1 // last iteration: no triangular solves remain
	}
	s.start = &iterStart{a: s.a, k: next, trsmEdge: trsmEdge, flipEdge: 0}
	s.l11, s.piv = s.start.run(ctx)
	s.began = true
}

func (s *nextState) Finish(ctx dps.Ctx) {
	if s.a.Cfg.Pipelined {
		return // all work already streamed out
	}
	// Basic graph: barrier semantics. Start the next iteration and post
	// every solve request.
	s.begin(ctx)
	for j := s.k + 2; j < s.a.blocks; j++ {
		s.start.postTrsm(ctx, s.l11, s.piv, j)
	}
}

// --- operation (g): row flipping on earlier blocks ---

// flipLeaf applies iteration pivots to an already-factored column block.
// Row exchanges of different iterations do not commute, and the network
// may reorder requests under contention, so each block applies flips
// strictly in iteration order, stashing early arrivals.
func (a *App) flipLeaf() dps.LeafFunc {
	return func(ctx dps.Ctx, in dps.DataObject) {
		req := in.(*FlipReq)
		n, r := a.Cfg.N, a.Cfg.R
		ctx.Compute(a.keys.flip, a.Cfg.Costs.Flip(r), func() {
			st := ctx.Store()
			blk := st[blockKey(req.Block)].(*linalg.Mat)
			nextKey := fmt.Sprintf("flipnext:%d", req.Block)
			stashKey := fmt.Sprintf("flipstash:%d", req.Block)
			next, _ := st[nextKey].(int)
			if next == 0 {
				next = req.Block + 1 // first flip comes from iteration j+1
			}
			stash, _ := st[stashKey].(map[int][]int)
			if stash == nil {
				stash = make(map[int][]int)
				st[stashKey] = stash
			}
			stash[req.Iter] = req.Piv
			for {
				piv, ok := stash[next]
				if !ok {
					break
				}
				delete(stash, next)
				trailing := blk.View(next*r, 0, n-next*r, r)
				trailing.ApplyPivots(piv)
				next++
			}
			st[nextKey] = next
		})
		ctx.Post(&FlipDone{Iter: req.Iter, Block: req.Block})
	}
}

// --- operation (h): termination merge ---

type doneState struct{ flips int }

func (s *doneState) Absorb(dps.Ctx, dps.DataObject) { s.flips++ }
func (s *doneState) Finish(dps.Ctx)                 {}

// --- driving helpers ---

// Prepare seeds the worker thread stores with the column blocks of a
// random well-conditioned matrix and returns the original for reference
// checks. store is a simulation engine's or the parallel runtime's
// Store. Only needed when computations execute.
func (a *App) Prepare(store func(*dps.Collection, int) dps.Store, contentSeed uint64) *linalg.Mat {
	src := rng.New(contentSeed)
	orig := linalg.RandomSPDish(a.Cfg.N, src)
	for j := 0; j < a.blocks; j++ {
		st := store(a.Workers, a.owner(j))
		st[blockKey(j)] = orig.View(0, j*a.Cfg.R, a.Cfg.N, a.Cfg.R).Clone()
	}
	return orig.Clone()
}

// Start injects the bootstrap seed on owner(0).
func (a *App) Start(eng *core.Engine) {
	eng.Inject(a.Init, a.owner(0), &Seed{})
}

// Assemble reconstructs the packed LU factors from the distributed
// column blocks (correctness verification); store is as for Prepare.
func (a *App) Assemble(store func(*dps.Collection, int) dps.Store) *linalg.Mat {
	out := linalg.NewMat(a.Cfg.N, a.Cfg.N)
	for j := 0; j < a.blocks; j++ {
		st := store(a.Workers, a.owner(j))
		blk := st[blockKey(j)].(*linalg.Mat)
		out.View(0, j*a.Cfg.R, a.Cfg.N, a.Cfg.R).CopyFrom(blk)
	}
	return out
}

// Blocks returns the number of column blocks (and LU iterations).
func (a *App) Blocks() int { return a.blocks }
