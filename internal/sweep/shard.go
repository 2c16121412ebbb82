package sweep

// Cross-process sharding. A sharded sweep splits the grid into n
// disjoint partitions by cell content hash (CellHash.ShardOf): every
// process derives the same split from the scenario alone, runs only its
// own cells, and writes a shard artifact keyed by hash. Merging the n
// artifacts reconstructs the full grid report byte-identical to a
// single-process run — per-cell aggregates are pure functions of the
// cell's content, and the merge re-derives row order and display labels
// from the scenario, taking only the numbers from the artifacts.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
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

// ShardArtifactVersion is the format version of shard artifact files;
// MergeShards rejects other versions.
const ShardArtifactVersion = 1

// ShardArtifact is one shard's output: the aggregates of every unique
// cell the shard owns, keyed by content hash. Duplicate cells (dedup'd
// or not) appear once — the merge fans the entry out to every grid slot
// with that hash.
type ShardArtifact struct {
	Version      int         `json:"version"`
	Scenario     string      `json:"scenario"`
	ShardIndex   int         `json:"shard_index"`
	ShardCount   int         `json:"shard_count"`
	Replications int         `json:"replications"`
	Cells        []ShardCell `json:"cells"`
}

// ShardCell pairs a cell's content hash with its finalized aggregate.
type ShardCell struct {
	Hash  string    `json:"hash"`
	Stats CellStats `json:"stats"`
}

// RunShard executes one shard of the grid (opt.Shard selects which;
// the zero value runs everything as shard 0/1) and returns its
// artifact. Checkpoint, dedup and interrupt options apply per shard.
func RunShard(spec *scenario.Spec, opt Options) (*ShardArtifact, error) {
	p, err := runGrid(spec, opt)
	if err != nil {
		return nil, err
	}
	art := &ShardArtifact{
		Version:      ShardArtifactVersion,
		Scenario:     spec.Name,
		ShardIndex:   opt.Shard.Index,
		ShardCount:   max(opt.Shard.Count, 1),
		Replications: p.reps,
	}
	for ui := range p.units {
		if u := &p.units[ui]; !u.dup {
			art.Cells = append(art.Cells, ShardCell{Hash: u.hash.String(), Stats: u.acc.stats(p.cells[u.cells[0]], p.reps)})
		}
	}
	return art, nil
}

// WriteShard writes the artifact atomically as indented JSON.
func WriteShard(path string, art *ShardArtifact) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(art)
	})
}

// readShard loads and validates one artifact file.
func readShard(path string) (*ShardArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("sweep: shard artifact %s does not exist", path)
		}
		return nil, fmt.Errorf("sweep: shard artifact: %w", err)
	}
	var art ShardArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("sweep: shard artifact %s: %w", path, err)
	}
	if art.Version != ShardArtifactVersion {
		return nil, fmt.Errorf("sweep: shard artifact %s: version %d, want %d", path, art.Version, ShardArtifactVersion)
	}
	return &art, nil
}

// MergeShards combines shard artifacts into the full grid's aggregates,
// in Cells() order, byte-identical to a single-process Run: the grid,
// its hashes and the display labels are re-derived from the scenario,
// and each cell takes its numbers from whichever artifact owns its
// hash. Returns the aggregates and the shards' replication count.
//
// The artifacts must come from the same scenario, replication count and
// shard split — the same shard_count, each shard_index at most once —
// so a stale artifact from a different split (say a 0/3 mixed into a
// 0/2 + 1/2 merge) is rejected instead of silently overwriting cells.
// A cell whose hash no artifact covers is an error (the scenario was
// edited after the shards ran, or a shard is missing).
func MergeShards(spec *scenario.Spec, paths []string) ([]CellStats, int, error) {
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("sweep: no shard artifacts to merge")
	}
	byHash := make(map[string]CellStats)
	reps := 0
	count := 0
	indexSeen := make(map[int]string, len(paths))
	for _, path := range paths {
		art, err := readShard(path)
		if err != nil {
			return nil, 0, err
		}
		if art.Scenario != spec.Name {
			return nil, 0, fmt.Errorf("sweep: shard artifact %s: scenario %q, want %q", path, art.Scenario, spec.Name)
		}
		if reps == 0 {
			reps = art.Replications
		} else if art.Replications != reps {
			return nil, 0, fmt.Errorf("sweep: shard artifact %s: %d replications, other shards ran %d",
				path, art.Replications, reps)
		}
		if count == 0 {
			count = art.ShardCount
		} else if art.ShardCount != count {
			return nil, 0, fmt.Errorf("sweep: shard artifact %s: shard split %d/%d, other artifacts are from an n=%d split",
				path, art.ShardIndex, art.ShardCount, count)
		}
		if art.ShardIndex < 0 || art.ShardIndex >= art.ShardCount {
			return nil, 0, fmt.Errorf("sweep: shard artifact %s: shard index %d outside 0..%d",
				path, art.ShardIndex, art.ShardCount-1)
		}
		if prev, ok := indexSeen[art.ShardIndex]; ok {
			return nil, 0, fmt.Errorf("sweep: shard artifact %s: shard %d/%d already merged from %s",
				path, art.ShardIndex, art.ShardCount, prev)
		}
		indexSeen[art.ShardIndex] = path
		for _, sc := range art.Cells {
			byHash[sc.Hash] = sc.Stats
		}
	}
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	out := make([]CellStats, len(cells))
	for ci, c := range cells {
		st, ok := byHash[hashes[ci].String()]
		if !ok {
			return nil, 0, fmt.Errorf("sweep: no shard artifact covers cell %s (hash %s) — scenario edited after the shards ran, or a shard missing?",
				c, hashes[ci])
		}
		// The artifact's embedded Cell may carry another duplicate's
		// display labels; identity comes from the locally expanded grid.
		st.Cell = c
		out[ci] = st
	}
	return out, reps, nil
}
