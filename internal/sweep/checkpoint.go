package sweep

// Resumable fold checkpoints. A checkpoint is a JSON snapshot of the
// sweep's fold frontier — every unit's streaming accumulator plus the
// count of replications it has absorbed — keyed by the unit's content
// hash. Because per-cell folds are independent and strictly
// replication-ordered, restoring an accumulator and folding the
// remaining replications yields bit-identical aggregates to an
// uninterrupted run (float64 values survive the JSON round-trip
// exactly: Go emits the shortest representation that parses back to the
// same bits).
//
// Content-hash keying is what makes a checkpoint robust:
//
//   - A resume after a grid edit restores only the cells whose hash
//     still appears, so an incremental re-sweep runs just the new or
//     edited cells.
//   - Any change to the workload (seed, jobs, mix, horizon) changes
//     every hash, so a stale checkpoint is ignored rather than merged —
//     no explicit scenario-fingerprint check is needed.
//
// Files are written through the atomic-rename path, so a crash
// mid-write leaves the previous complete checkpoint in place.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// CheckpointVersion is the format version of the sweep checkpoint file;
// readers reject other versions.
const CheckpointVersion = 1

// checkpointFile is the on-disk checkpoint layout.
type checkpointFile struct {
	Version  int    `json:"version"`
	Scenario string `json:"scenario"`
	// ShardIndex and ShardCount record the run's shard selection (a
	// shard's checkpoint is its artifact); both are omitted for the
	// whole grid, and a count of 0 reads as 1.
	ShardIndex   int `json:"shard_index,omitempty"`
	ShardCount   int `json:"shard_count,omitempty"`
	Replications int `json:"replications"`
	// FoldNext is the fold frontier at snapshot time — the grid slots
	// settled, as dpsim_sweep_fold_frontier counts them (informational:
	// restore derives everything from the per-cell entries).
	FoldNext int `json:"fold_next"`
	// Cells maps each content hash (lowercase hex) to its unit's folded
	// accumulator state. Units with nothing folded are omitted.
	Cells map[string]checkpointCell `json:"cells"`
}

// checkpointCell is one unit's resumable state.
type checkpointCell struct {
	// Folded counts the replications already absorbed by Accum, in
	// replication order; the resumed sweep executes reps [Folded, reps).
	Folded int       `json:"folded"`
	Accum  cellAccum `json:"accum"`
}

// save snapshots every unit that has folded anything, keyed by content
// hash, and rewrites opt.Checkpoint atomically. Called under the fold
// lock (or after the pool has drained), so the snapshot is a consistent
// cut; the accumulators' responses are shared, not copied, and
// serialized before the lock is released.
func (p *plan) save(scenario string, opt *Options) error {
	ck := &checkpointFile{
		Version:      CheckpointVersion,
		Scenario:     scenario,
		ShardIndex:   opt.Shard.Index,
		ShardCount:   opt.Shard.Count,
		Replications: p.reps,
		FoldNext:     p.settled,
		Cells:        make(map[string]checkpointCell, len(p.units)),
	}
	for ui := range p.units {
		if u := &p.units[ui]; u.folded > 0 && !u.dup {
			ck.Cells[u.hash.String()] = checkpointCell{Folded: u.folded, Accum: u.acc}
		}
	}
	return saveCheckpointFile(opt.Checkpoint, ck)
}

// resume returns the entries opt's run restores from opt.Checkpoint:
// none without a checkpoint or before its first save, and none from a
// file of another replication count (its accumulators fold a different
// run set). A file saved under another shard selection is an error —
// resuming it would let one shard silently overwrite another's artifact.
func resume(opt *Options) (map[string]checkpointCell, error) {
	if opt.Checkpoint == "" {
		return nil, nil
	}
	ck, err := loadCheckpoint(opt.Checkpoint)
	if ck == nil {
		return nil, err
	}
	if ck.ShardIndex != opt.Shard.Index || max(ck.ShardCount, 1) != max(opt.Shard.Count, 1) {
		return nil, fmt.Errorf("sweep: checkpoint %s was saved by shard %d/%d, this run is shard %d/%d",
			opt.Checkpoint, ck.ShardIndex, max(ck.ShardCount, 1), opt.Shard.Index, max(opt.Shard.Count, 1))
	}
	if ck.Replications != max(opt.Replications, 1) {
		return nil, nil
	}
	return ck.Cells, nil
}

// loadCheckpoint reads a checkpoint file; a missing file is a fresh
// start (nil, nil), anything unreadable or of a foreign version is an
// error — silently discarding a corrupt checkpoint would silently
// re-run the whole sweep.
func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("sweep: %s is not a sweep checkpoint: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("sweep: checkpoint %s: version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// saveCheckpointFile writes the checkpoint through the atomic-rename
// path: the previous checkpoint stays intact until the new one is
// durably complete.
func saveCheckpointFile(path string, ck *checkpointFile) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(ck) })
}
