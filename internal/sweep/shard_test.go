package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpsim/internal/obs"
	"dpsim/internal/scenario"
)

// dupSpec contains a duplicate scheduler entry so the shard/dedup
// interaction is exercised: equal-hash cells land in the same shard and
// fan out there.
func dupSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	return parseSpec(t, `{
		"name": "shardgrid",
		"nodes": [4, 8],
		"loads": [0.5, 1.0],
		"schedulers": ["equipartition", "rigid-fcfs", "equipartition"],
		"seed": 13,
		"jobs": 5,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05, "cv": 0.3}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 4}
	}`)
}

// observeNone attaches an observer that observes nothing: dedup stands
// down under observation, so it puts every owned cell in a unit of its
// own while leaving every run unobserved.
func observeNone(Observation) obs.Probe { return nil }

// runShard runs shard sel into a checkpoint in dir and returns its path.
func runShard(t *testing.T, spec *scenario.Spec, dir string, opt Options, sel ShardSel) string {
	t.Helper()
	opt.Shard = sel
	opt.Checkpoint = filepath.Join(dir, fmt.Sprintf("shard%dof%d-r%d.json", sel.Index, sel.Count, opt.Replications))
	if _, err := RunShard(spec, opt); err != nil {
		t.Fatalf("shard %d/%d: %v", sel.Index, sel.Count, err)
	}
	return opt.Checkpoint
}

// TestShardMergeByteIdentical is the sharding contract: for any shard
// count, running every shard and merging their checkpoints exports CSV
// and JSON byte-identical to a single-process run — with dedup on or
// off (observed).
func TestShardMergeByteIdentical(t *testing.T) {
	spec := dupSpec(t)
	const reps = 2
	for _, observe := range []func(Observation) obs.Probe{nil, observeNone} {
		single, err := Run(spec, Options{Replications: reps, Observe: observe})
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, wantJSON := exportBoth(t, spec, single)
		for _, n := range []int{1, 2, 4} {
			name := fmt.Sprintf("n=%d/observed=%v", n, observe != nil)
			dir := t.TempDir()
			var paths []string
			for i := 0; i < n; i++ {
				paths = append(paths, runShard(t, spec, dir, Options{Replications: reps, Observe: observe}, ShardSel{i, n}))
			}
			merged, gotReps, err := MergeShards(spec, paths)
			if err != nil {
				t.Fatalf("%s merge: %v", name, err)
			}
			if gotReps != reps {
				t.Fatalf("%s: merged %d replications, want %d", name, gotReps, reps)
			}
			gotCSV, gotJSON := exportBoth(t, spec, merged)
			if gotCSV != wantCSV {
				t.Fatalf("%s: merged CSV differs from single-process run\n%s\nvs\n%s", name, gotCSV, wantCSV)
			}
			if gotJSON != wantJSON {
				t.Fatalf("%s: merged JSON differs from single-process run", name)
			}
		}
	}
}

// TestMergeUnshardedCheckpoint: the completed checkpoint of a whole-grid
// sweep is a one-shard artifact — merging it alone reproduces that
// sweep's exports.
func TestMergeUnshardedCheckpoint(t *testing.T) {
	spec := dupSpec(t)
	ck := filepath.Join(t.TempDir(), "ck.json")
	stats, err := Run(spec, Options{Replications: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	merged, reps, err := MergeShards(spec, []string{ck})
	if err != nil || reps != 2 {
		t.Fatalf("merge of the whole-grid checkpoint: %d replications, %v", reps, err)
	}
	wantCSV, wantJSON := exportBoth(t, spec, stats)
	if gotCSV, gotJSON := exportBoth(t, spec, merged); gotCSV != wantCSV || gotJSON != wantJSON {
		t.Fatalf("merged whole-grid checkpoint differs from its sweep's exports\n%s\nvs\n%s", gotCSV, wantCSV)
	}
}

// TestMergeShardsMissingShard: merging an incomplete artifact set must
// fail loudly, not silently export a partial grid.
func TestMergeShardsMissingShard(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	p := runShard(t, spec, dir, Options{Replications: 1}, ShardSel{0, 2})
	if _, _, err := MergeShards(spec, []string{p}); err == nil {
		t.Fatal("merge with a missing shard succeeded")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("unhelpful merge error: %v", err)
	}
	if _, _, err := MergeShards(spec, []string{p, filepath.Join(dir, "absent.json")}); err == nil ||
		!strings.Contains(err.Error(), "absent.json does not exist") {
		t.Fatalf("merge of a missing file: %v", err)
	}

	// In a federated grid the arrival/availability/scheduler/appmodel
	// columns read the same for every cell of a load: only the policy
	// pair tells which cell is missing, so the error must name it.
	fed := fedSpec(t)
	p = runShard(t, fed, t.TempDir(), Options{Replications: 1}, ShardSel{0, 2})
	cells := Cells(fed)
	missing := -1
	for ci, h := range CellHashes(fed, cells) {
		if h.ShardOf(2) == 1 {
			missing = ci
			break
		}
	}
	if missing < 0 {
		t.Fatal("shard 0/2 owns the whole federated grid; pick another split")
	}
	_, _, err := MergeShards(fed, []string{p})
	if err == nil {
		t.Fatal("federated merge with a missing shard succeeded")
	}
	c := cells[missing]
	if want := c.Admission + "/" + c.Routing; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.String()) {
		t.Fatalf("merge error does not name the missing cell's policy pair %q: %v", want, err)
	}
}

// TestMergeRejectsPartlyFolded: the checkpoint of an interrupted shard
// holds entries that folded only some replications; merging it must
// name the cell, its hash and how far it got instead of exporting
// aggregates of the wrong run set.
func TestMergeRejectsPartlyFolded(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	const reps = 3
	s1 := runShard(t, spec, dir, Options{Replications: reps}, ShardSel{1, 2})
	s0 := filepath.Join(dir, "s0.json")
	// One worker, a checkpoint after every run, stopped after 2 runs: the
	// first unit of shard 0 has folded 2 of its 3 replications.
	_, err := RunShard(spec, Options{Replications: reps, Workers: 1, Shard: ShardSel{0, 2},
		Checkpoint: s0, CheckpointEvery: 1, Interrupted: interruptAfter(2)})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	first := 0
	for hashes[first].ShardOf(2) != 0 {
		first++
	}
	_, _, err = MergeShards(spec, []string{s0, s1})
	if err == nil {
		t.Fatal("merge of an interrupted shard succeeded")
	}
	for _, want := range []string{cells[first].String(), hashes[first].String(), "folded 2 of 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("partly-folded merge error does not name %q: %v", want, err)
		}
	}
}

// TestMergeRejectsParentArtifact: testdata/shard_v1_parent.json is a
// shard artifact in the layout shards wrote before their checkpoint
// became the artifact (dupSpec, shard 0/2, 2 replications: finalized
// stats in a "cells" list). Merging it is a named error, not a raw JSON
// decode message.
func TestMergeRejectsParentArtifact(t *testing.T) {
	path := filepath.Join("testdata", "shard_v1_parent.json")
	_, _, err := MergeShards(dupSpec(t), []string{path})
	if err == nil || !strings.Contains(err.Error(), path+" is not a sweep checkpoint") {
		t.Fatalf("merge of an old-layout shard artifact: %v", err)
	}
}

// TestMergeShardsRepsMismatch: artifacts swept at different replication
// counts cannot be combined.
func TestMergeShardsRepsMismatch(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	paths := []string{
		runShard(t, spec, dir, Options{Replications: 1}, ShardSel{0, 2}),
		runShard(t, spec, dir, Options{Replications: 2}, ShardSel{1, 2}),
	}
	if _, _, err := MergeShards(spec, paths); err == nil {
		t.Fatal("merge across replication counts succeeded")
	}
}

// TestMergeShardsRejectsMixedSplits: artifacts must come from one shard
// split — a stale artifact from a different n, or the same shard twice,
// would silently overwrite cells last-wins in the merge.
func TestMergeShardsRejectsMixedSplits(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	opt := Options{Replications: 1}
	s0of2 := runShard(t, spec, dir, opt, ShardSel{0, 2})
	s1of2 := runShard(t, spec, dir, opt, ShardSel{1, 2})
	s0of3 := runShard(t, spec, dir, opt, ShardSel{0, 3})

	if _, _, err := MergeShards(spec, []string{s0of2, s1of2}); err != nil {
		t.Fatalf("clean 2-way merge failed: %v", err)
	}
	if _, _, err := MergeShards(spec, []string{s0of2, s1of2, s0of3}); err == nil {
		t.Fatal("artifacts from different shard splits merged silently")
	} else if !strings.Contains(err.Error(), "split") {
		t.Fatalf("unhelpful mixed-split error: %v", err)
	}
	if _, _, err := MergeShards(spec, []string{s0of2, s0of2, s1of2}); err == nil {
		t.Fatal("the same shard index merged twice silently")
	} else if !strings.Contains(err.Error(), "already merged") {
		t.Fatalf("unhelpful duplicate-index error: %v", err)
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShardSel
	}{
		{"0/4", ShardSel{0, 4}},
		{"3/4", ShardSel{3, 4}},
		{"0/1", ShardSel{0, 1}},
	} {
		got, err := ParseShard(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "4/4", "-1/2", "x/2", "1", "1/0", "1/x", "0/-1", "1/2/3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestRunRejectsMultiShard: Run aggregates a full grid; a multi-shard
// selection must be routed through RunShard instead of silently
// returning a partial result.
func TestRunRejectsMultiShard(t *testing.T) {
	spec := dupSpec(t)
	if _, err := Run(spec, Options{Replications: 1, Shard: ShardSel{Index: 0, Count: 2}}); err == nil {
		t.Fatal("Run accepted a multi-shard selection")
	}
}

// TestRunShardInvalidIndex: out-of-range shard selections are rejected,
// and so is a shard run with nowhere to save its artifact.
func TestRunShardInvalidIndex(t *testing.T) {
	spec := dupSpec(t)
	ck := filepath.Join(t.TempDir(), "ck.json")
	for _, sel := range []ShardSel{{Index: 2, Count: 2}, {Index: -1, Count: 2}} {
		if _, err := RunShard(spec, Options{Replications: 1, Shard: sel, Checkpoint: ck}); err == nil {
			t.Fatalf("RunShard accepted shard %d/%d", sel.Index, sel.Count)
		}
	}
	if _, err := os.Stat(ck); err == nil {
		t.Error("a rejected shard selection still saved a checkpoint")
	}
	if _, err := RunShard(spec, Options{Replications: 1, Shard: ShardSel{0, 2}}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("RunShard without a checkpoint: %v", err)
	}
}
