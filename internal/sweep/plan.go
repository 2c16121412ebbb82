package sweep

// The sweep plan: which replications does this process still owe?
// newPlan answers once, keyed by content hash (hash.go) — shard
// ownership, dedup and checkpoint restore are all decided while the
// units are built, so a plain grid, a dedup'd grid, a shard, a resume
// and a merge execute, checkpoint and finalize as the same loop over the
// same lists.

import (
	"fmt"
	"slices"
	"strings"

	"dpsim/internal/scenario"
)

// unit is everything the sweep knows about one content hash: the grid
// cells that display its aggregate, how many of its replications have
// folded, and the one accumulator they fold into. Equal-hash cells have
// equal resolved parameters and therefore equal seeds and equal runs, so
// they share a unit instead of each folding a copy. With Observe set
// every owned cell gets a unit of its own.
type unit struct {
	hash CellHash
	// cells indexes plan.cells, ascending; cells[0] names the unit in
	// errors and probes and supplies the axis indices its runs execute.
	cells []int
	// dup marks a unit whose hash an earlier unit already carries (dedup
	// off). Checkpoints hold one entry per hash: the earlier unit's,
	// which has folded at least as far.
	dup bool
	// folded counts the replications acc has absorbed, in replication
	// order — restored from the checkpoint, then one per fold.
	folded int
	acc    cellAccum
}

// owedRun is one replication this process still has to execute.
type owedRun struct{ unit, rep int }

// plan is a sweep's expanded grid and its progress through it.
type plan struct {
	cells []Cell
	reps  int
	// members names each cell's member clusters, the federation block's
	// clusters in order; a non-federated cell is its own member "".
	members []string
	units   []unit
	// runs lists what is still owed at plan time in (unit, replication)
	// order — with one unit per cell that is (cell, replication) order.
	runs []owedRun
	// deduped counts the cells displaying a unit another cell executes
	// for, resumed the cells whose unit restored from the checkpoint.
	deduped, resumed int
	// settled counts the (cell, replication) slots of the whole grid
	// that need nothing more from this process — another shard's, or
	// folded into a unit the cell displays — and cellsDone the cells
	// whose every slot is settled. fold advances both.
	settled, cellsDone int
}

// newPlan expands the grid into units and owed runs, restoring each
// unit's folded state from the checkpoint entries of its hash. Entries
// restore by content hash, so a resume survives grid edits — unchanged
// cells restore, new or edited cells (fresh hashes) run from scratch.
func newPlan(spec *scenario.Spec, opt Options, restore map[string]checkpointCell) (*plan, error) {
	cells, hashes, err := CellsMatching(spec, opt.Cell)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	shards := opt.Shard.Count
	if shards > 1 && (opt.Shard.Index < 0 || opt.Shard.Index >= shards) {
		return nil, fmt.Errorf("sweep: shard index %d outside 0..%d", opt.Shard.Index, shards-1)
	}
	p := &plan{cells: cells, reps: max(opt.Replications, 1), members: []string{""}, units: make([]unit, 0, len(cells))}
	if f := spec.Federation; f != nil {
		p.members = make([]string, len(f.Clusters))
		for i, c := range f.Clusters {
			p.members[i] = c.Name
		}
	}

	// Cells partition across shards by content hash, so every process of
	// an n-way split derives the same disjoint ownership and a group of
	// equal-hash cells always lands in one shard.
	dedup := opt.Observe == nil
	first := make(map[CellHash]int, len(cells)) // hash → its first unit
	self := make([]int, len(cells))             // backs every unit's cells[:1]
	for ci, h := range hashes {
		if shards > 1 && h.ShardOf(shards) != opt.Shard.Index {
			continue
		}
		ui, seen := first[h]
		if seen && dedup {
			p.units[ui].cells = append(p.units[ui].cells, ci)
			continue
		}
		if !seen {
			first[h] = len(p.units)
		}
		self[ci] = ci
		u := unit{hash: h, cells: self[ci : ci+1 : ci+1], dup: seen}
		if restore != nil {
			if e, ok := restore[h.String()]; ok && e.Folded > 0 && e.Folded <= p.reps {
				u.folded, u.acc = e.Folded, e.Accum
				// Units of one hash (dedup off) restore from the same
				// decoded entry, and each appends to and sorts its
				// responses in place: copy, never adopt.
				u.acc.Responses = slices.Clone(e.Accum.Responses)
			}
		}
		p.units = append(p.units, u)
	}

	p.runs = make([]owedRun, 0, len(p.units)*p.reps)
	p.settled, p.cellsDone = len(cells)*p.reps, len(cells)
	for ui := range p.units {
		u := &p.units[ui]
		n := len(u.cells)
		p.deduped += n - 1
		if u.folded > 0 {
			p.resumed += n
		}
		if u.folded < p.reps {
			p.cellsDone -= n
		}
		for rep := u.folded; rep < p.reps; rep++ {
			p.runs = append(p.runs, owedRun{ui, rep})
			p.settled -= n
		}
	}
	return p, nil
}

// CellsMatching returns the cells of spec's grid, in grid order, with
// their content hashes — only those whose hash starts with the
// lowercase-hex prefix when it is non-empty. A prefix must select
// exactly one hash (the equal-hash cells of a duplicated axis entry
// share it); one that matches none or several is an error naming the
// count.
func CellsMatching(spec *scenario.Spec, prefix string) ([]Cell, []CellHash, error) {
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	if prefix == "" {
		return cells, hashes, nil
	}
	seen := make(map[CellHash]bool)
	var keptCells []Cell
	var keptHashes []CellHash
	for i, h := range hashes {
		if strings.HasPrefix(h.String(), prefix) {
			seen[h] = true
			keptCells, keptHashes = append(keptCells, cells[i]), append(keptHashes, h)
		}
	}
	if len(seen) != 1 {
		return nil, nil, fmt.Errorf("sweep: cell prefix %q matches %d cell hashes, want exactly 1", prefix, len(seen))
	}
	return keptCells, keptHashes, nil
}

// observation names member m of u's replication rep.
func (p *plan) observation(u *unit, rep, m int) Observation {
	return Observation{Cell: p.cells[u.cells[0]], Hash: u.hash, Rep: rep, Cluster: p.members[m]}
}

// fold absorbs u's next replication. Callers fold a unit's runs in
// replication order (the float sums are order-sensitive).
func (p *plan) fold(u *unit, run *scenario.CellRun) {
	u.acc.fold(run, p.reps)
	u.folded++
	p.settled += len(u.cells)
	if u.folded == p.reps {
		p.cellsDone += len(u.cells)
	}
}

// stats finalizes every unit into the grid's aggregates, in Cells()
// order: each display cell gets its unit's numbers under its own labels.
// Cells of other shards stay zero-valued.
func (p *plan) stats() []CellStats {
	out := make([]CellStats, len(p.cells))
	for ui := range p.units {
		u := &p.units[ui]
		st := u.acc.stats(p.cells[u.cells[0]], p.reps)
		st.Hash = u.hash
		for _, ci := range u.cells {
			st.Cell = p.cells[ci]
			out[ci] = st
		}
	}
	return out
}
