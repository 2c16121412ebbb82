package sweep

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

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

// TestShardMergeByteIdentical is the sharding contract: for any shard
// count, running every shard and merging the artifacts exports CSV and
// JSON byte-identical to a single-process run — with dedup on or off.
func TestShardMergeByteIdentical(t *testing.T) {
	spec := dupSpec(t)
	const reps = 2
	for _, noDedup := range []bool{false, true} {
		single, err := Run(spec, Options{Replications: reps, NoDedup: noDedup})
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, wantJSON := exportBoth(t, spec, single)
		for _, n := range []int{1, 2, 4} {
			name := fmt.Sprintf("n=%d/noDedup=%v", n, noDedup)
			dir := t.TempDir()
			var paths []string
			for i := 0; i < n; i++ {
				art, err := RunShard(spec, Options{
					Replications: reps, NoDedup: noDedup,
					Shard: ShardSel{Index: i, Count: n},
				})
				if err != nil {
					t.Fatalf("%s shard %d: %v", name, i, err)
				}
				p := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
				if err := WriteShard(p, art); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p)
			}
			merged, uniq, err := MergeShards(spec, paths)
			if err != nil {
				t.Fatalf("%s merge: %v", name, err)
			}
			if uniq <= 0 {
				t.Fatalf("%s: merged %d unique cells", name, uniq)
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

// TestMergeShardsMissingShard: merging an incomplete artifact set must
// fail loudly, not silently export a partial grid.
func TestMergeShardsMissingShard(t *testing.T) {
	spec := dupSpec(t)
	art, err := RunShard(spec, Options{Replications: 1, Shard: ShardSel{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "shard0.json")
	if err := WriteShard(p, art); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeShards(spec, []string{p}); err == nil {
		t.Fatal("merge with a missing shard succeeded")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("unhelpful merge error: %v", err)
	}

	// In a federated grid the arrival/availability/scheduler/appmodel
	// columns read the same for every cell of a load: only the policy
	// pair tells which cell is missing, so the error must name it.
	fed := fedSpec(t)
	art, err = RunShard(fed, Options{Replications: 1, Shard: ShardSel{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(p, art); err != nil {
		t.Fatal(err)
	}
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
	_, _, err = MergeShards(fed, []string{p})
	if err == nil {
		t.Fatal("federated merge with a missing shard succeeded")
	}
	c := cells[missing]
	if want := c.Admission + "/" + c.Routing; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.String()) {
		t.Fatalf("merge error does not name the missing cell's policy pair %q: %v", want, err)
	}
}

// TestMergeShardsRepsMismatch: artifacts swept at different replication
// counts cannot be combined.
func TestMergeShardsRepsMismatch(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	var paths []string
	for i, reps := range []int{1, 2} {
		art, err := RunShard(spec, Options{Replications: reps, Shard: ShardSel{Index: i, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if err := WriteShard(p, art); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
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
	write := func(name string, idx, count int) string {
		t.Helper()
		art, err := RunShard(spec, Options{Replications: 1, Shard: ShardSel{Index: idx, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := WriteShard(p, art); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s0of2 := write("s0of2.json", 0, 2)
	s1of2 := write("s1of2.json", 1, 2)
	s0of3 := write("s0of3.json", 0, 3)

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

// TestRunShardInvalidIndex: out-of-range shard selections are rejected.
func TestRunShardInvalidIndex(t *testing.T) {
	spec := dupSpec(t)
	for _, sel := range []ShardSel{{Index: 2, Count: 2}, {Index: -1, Count: 2}} {
		if _, err := RunShard(spec, Options{Replications: 1, Shard: sel}); err == nil {
			t.Fatalf("RunShard accepted shard %d/%d", sel.Index, sel.Count)
		}
	}
}
