package sweep

// Cross-process sharding. A sharded sweep splits the grid into n
// disjoint partitions by cell content hash (CellHash.ShardOf): every
// process derives the same split from the scenario alone, runs only its
// own cells, and checkpoints them — the completed checkpoint is the
// shard's artifact. Merging the n checkpoints is a resume of the whole
// grid that owes nothing, so the report is byte-identical to a
// single-process run: row order and labels come from the scenario, only
// the folded accumulators from the files.

import (
	"cmp"
	"fmt"
	"maps"
	"strconv"
	"strings"

	"dpsim/internal/scenario"
)

// ShardSel selects one shard of an n-way split: Index in [0, Count).
// The zero value (Count 0 or 1) means "the whole grid".
type ShardSel struct {
	Index int
	Count int
}

// ParseShard parses the CLI form "i/n" (e.g. "0/4").
func ParseShard(s string) (ShardSel, error) {
	idx, count, ok := strings.Cut(s, "/")
	if ok {
		i, err1 := strconv.Atoi(idx)
		n, err2 := strconv.Atoi(count)
		if err1 == nil && err2 == nil && n >= 1 && i >= 0 && i < n {
			return ShardSel{Index: i, Count: n}, nil
		}
	}
	return ShardSel{}, fmt.Errorf("sweep: invalid shard %q (want i/n with 0 <= i < n)", s)
}

// RunShard executes one shard of the grid (opt.Shard selects which;
// the zero value runs everything as shard 0/1) into opt.Checkpoint,
// which is required: the completed checkpoint is the shard's artifact
// for MergeShards, and rerunning a killed shard resumes it. Dedup and
// interrupt options apply per shard. Returns the number of units — one
// per unique cell — the shard owns.
func RunShard(spec *scenario.Spec, opt Options) (units int, err error) {
	if opt.Checkpoint == "" {
		return 0, fmt.Errorf("sweep: a shard run needs a checkpoint: it is the shard's artifact")
	}
	p, err := runGrid(spec, opt)
	if err != nil {
		return 0, err
	}
	return len(p.units), nil
}

// MergeShards combines completed shard checkpoints into the full grid's
// aggregates, in Cells() order, byte-identical to a single-process Run:
// the union of the files' entries restores a plan of the whole grid —
// a resume that must owe no runs — and the plan finalizes as a run's
// does. Returns the aggregates and the shards' replication count.
//
// The files must come from the same scenario, replication count and
// shard split — the same shard_count, each shard_index at most once —
// so a stale checkpoint from a different split (say a 0/3 mixed into a
// 0/2 + 1/2 merge) is rejected instead of silently overwriting cells.
// A cell whose hash no file covers (the scenario was edited after the
// shards ran, or a shard is missing) or covers only partly (an
// interrupted shard) is an error.
func MergeShards(spec *scenario.Spec, paths []string) ([]CellStats, int, error) {
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("sweep: no shard checkpoints to merge")
	}
	restore := make(map[string]checkpointCell)
	var first *checkpointFile
	indexSeen := make(map[int]string, len(paths))
	for _, path := range paths {
		ck, err := loadCheckpoint(path)
		if ck == nil && err == nil {
			err = fmt.Errorf("sweep: shard checkpoint %s does not exist", path)
		}
		if err != nil {
			return nil, 0, err
		}
		first = cmp.Or(first, ck)
		count := max(ck.ShardCount, 1)
		switch {
		case ck.Scenario != spec.Name:
			return nil, 0, fmt.Errorf("sweep: shard checkpoint %s: scenario %q, want %q", path, ck.Scenario, spec.Name)
		case ck.Replications != first.Replications:
			return nil, 0, fmt.Errorf("sweep: shard checkpoint %s: %d replications, other shards ran %d",
				path, ck.Replications, first.Replications)
		case count != max(first.ShardCount, 1):
			return nil, 0, fmt.Errorf("sweep: shard checkpoint %s: shard split %d/%d, other checkpoints are from an n=%d split",
				path, ck.ShardIndex, count, max(first.ShardCount, 1))
		case ck.ShardIndex < 0 || ck.ShardIndex >= count:
			return nil, 0, fmt.Errorf("sweep: shard checkpoint %s: shard index %d outside 0..%d", path, ck.ShardIndex, count-1)
		}
		if prev, ok := indexSeen[ck.ShardIndex]; ok {
			return nil, 0, fmt.Errorf("sweep: shard checkpoint %s: shard %d/%d already merged from %s",
				path, ck.ShardIndex, count, prev)
		}
		indexSeen[ck.ShardIndex] = path
		maps.Copy(restore, ck.Cells)
	}
	p, err := newPlan(spec, Options{Replications: first.Replications}, restore)
	if err != nil {
		return nil, 0, err
	}
	if len(p.runs) > 0 {
		u := &p.units[p.runs[0].unit]
		c := p.cells[u.cells[0]]
		if u.folded == 0 {
			return nil, 0, fmt.Errorf("sweep: no shard checkpoint covers cell %s (hash %s) — a shard missing or interrupted, or the scenario edited after the shards ran?",
				c, u.hash)
		}
		return nil, 0, fmt.Errorf("sweep: shard checkpoint for cell %s (hash %s) folded %d of %d replications — rerun its interrupted shard to finish it",
			c, u.hash, u.folded, p.reps)
	}
	return p.stats(), p.reps, nil
}
