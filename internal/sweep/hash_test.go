package sweep

import (
	"fmt"
	"testing"

	"dpsim/internal/scenario"
)

func parseSpec(t *testing.T, body string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// hashSpec builds a small grid with an adjustable loads axis.
func hashSpec(t *testing.T, loads string) *scenario.Spec {
	t.Helper()
	return parseSpec(t, `{
		"name": "hashgrid",
		"nodes": [4],
		"loads": `+loads+`,
		"schedulers": ["equipartition", "rigid-fcfs"],
		"seed": 7,
		"jobs": 4,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 3}
	}`)
}

// TestCellHashSurvivesGridEdits is the positional-identity bugfix:
// inserting a load must not change the identity (and therefore the
// seeds and results) of the cells that did not change.
func TestCellHashSurvivesGridEdits(t *testing.T) {
	byKey := func(spec *scenario.Spec) map[string]CellHash {
		cells := Cells(spec)
		hashes := CellHashes(spec, cells)
		out := make(map[string]CellHash)
		for i, c := range cells {
			out[fmt.Sprintf("%s@%g", c.Scheduler, c.Load)] = hashes[i]
		}
		return out
	}
	before := byKey(hashSpec(t, "[0.5, 1.0]"))
	after := byKey(hashSpec(t, "[0.5, 0.75, 1.0]"))
	if len(before) != 4 || len(after) != 6 {
		t.Fatalf("grids = %d and %d cells", len(before), len(after))
	}
	for key, h := range before {
		if after[key] != h {
			t.Errorf("cell %s re-identified after inserting a load: %s -> %s", key, h, after[key])
		}
	}
}

// TestCellHashIgnoresDisplayOnlyFields: the scenario name is not part of
// a cell's identity, the master seed is.
func TestCellHashIgnoresDisplayOnlyFields(t *testing.T) {
	base := hashSpec(t, "[1.0]")
	renamed := hashSpec(t, "[1.0]")
	renamed.Name = "renamed"
	reseeded := hashSpec(t, "[1.0]")
	reseeded.Seed = 8
	hb := CellHashes(base, Cells(base))
	hr := CellHashes(renamed, Cells(renamed))
	hs := CellHashes(reseeded, Cells(reseeded))
	for i := range hb {
		if hb[i] != hr[i] {
			t.Errorf("cell %d: renaming the scenario changed the hash", i)
		}
		if hb[i] == hs[i] {
			t.Errorf("cell %d: changing the master seed did not change the hash", i)
		}
	}
}

// TestDuplicateCellsHashEqual: label decoration ("#idx") is display
// only — duplicate axis entries still resolve to the same identity, the
// foundation of dedup.
func TestDuplicateCellsHashEqual(t *testing.T) {
	spec := parseSpec(t, `{
		"name": "dupgrid",
		"nodes": [4],
		"schedulers": ["equipartition", "equipartition"],
		"seed": 7,
		"jobs": 4,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 3}
	}`)
	cells := Cells(spec)
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].Scheduler == cells[1].Scheduler {
		t.Fatalf("duplicate labels not disambiguated: %q", cells[0].Scheduler)
	}
	hashes := CellHashes(spec, cells)
	if hashes[0] != hashes[1] {
		t.Fatalf("duplicate cells hash differently: %s vs %s", hashes[0], hashes[1])
	}
}

// TestShardOfPartition: shard assignment is deterministic, in range,
// and splits a real grid across shards rather than collapsing onto one.
func TestShardOfPartition(t *testing.T) {
	spec := testSpec(t)
	hashes := CellHashes(spec, Cells(spec))
	const n = 4
	counts := make([]int, n)
	for _, h := range hashes {
		s := h.ShardOf(n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if h.ShardOf(n) != s {
			t.Fatal("shard assignment not deterministic")
		}
		if h.ShardOf(1) != 0 || h.ShardOf(0) != 0 {
			t.Fatal("trivial shard counts must map to shard 0")
		}
		counts[s]++
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("16 cells collapsed onto %d shard(s): %v", nonEmpty, counts)
	}
}
