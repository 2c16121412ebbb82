package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dpsim/internal/obs"
	"dpsim/internal/scenario"
	"dpsim/internal/telemetry"
)

// wantUnit is one expected unit of an unsharded plan.
type wantUnit struct {
	cells  []int
	folded int
	dup    bool
}

func singletons(n int, dups ...int) []wantUnit {
	out := make([]wantUnit, n)
	for i := range out {
		out[i].cells = []int{i}
	}
	for _, d := range dups {
		out[d].dup = true
	}
	return out
}

// TestPlanUnits pins the planner without running a simulation: for
// every combination of dedup mode, checkpoint content and shard split,
// newPlan must produce exactly the expected units (display cells, folded
// count, dup flag), owe exactly their missing replications in (unit,
// replication) order, and report the matching gauges. The table states
// the unsharded expectation; shard i/n must plan precisely the expected
// units whose hash lands in shard i, so the n plans partition the grid.
func TestPlanUnits(t *testing.T) {
	const reps = 3
	plain := func(t *testing.T) *scenario.Spec { return ckSpec(t, "[0.5, 1.0]") }
	// dupSpec: 4 (nodes, load) groups × [equipartition, rigid-fcfs,
	// equipartition] — cells 3g and 3g+2 share a hash.
	deduped := func(folded ...int) []wantUnit {
		var out []wantUnit
		for g := 0; g < 4; g++ {
			out = append(out, wantUnit{cells: []int{3 * g, 3*g + 2}}, wantUnit{cells: []int{3*g + 1}})
		}
		for i, k := range folded {
			out[i].folded = k
		}
		return out
	}
	all := map[int]int{}
	for ci := 0; ci < 12; ci++ {
		all[ci] = reps
	}
	observeSome := singletons(12, 2, 5, 8, 11)
	observeSome[0].folded, observeSome[2].folded, observeSome[4].folded = 2, 2, 1
	observeAll := singletons(12, 2, 5, 8, 11)
	for i := range observeAll {
		observeAll[i].folded = reps
	}

	for _, tc := range []struct {
		name   string
		spec   func(*testing.T) *scenario.Spec
		opt    Options
		ckReps int         // replications recorded in the checkpoint (0: no checkpoint)
		folds  map[int]int // cell index → folded count of its hash's entry
		units  []wantUnit
		// Unsharded totals, stated rather than derived.
		runs, deduped, resumed int
	}{
		{name: "plain", spec: plain, units: singletons(4), runs: 12},
		{name: "duplicate axis entries", spec: dupSpec, units: deduped(), runs: 24, deduped: 4},
		{name: "Observe", spec: dupSpec, opt: Options{Observe: observeNone},
			units: singletons(12, 2, 5, 8, 11), runs: 36},
		{name: "checkpoint restores some", spec: dupSpec, ckReps: reps,
			folds: map[int]int{0: 3, 1: 1, 4: 2},
			units: deduped(3, 1, 0, 2), runs: 18, deduped: 4, resumed: 4},
		{name: "checkpoint keyed by a duplicate cell", spec: dupSpec, ckReps: reps,
			folds: map[int]int{2: 2},
			units: deduped(2), runs: 22, deduped: 4, resumed: 2},
		{name: "checkpoint restores all", spec: dupSpec, ckReps: reps, folds: all,
			units: deduped(3, 3, 3, 3, 3, 3, 3, 3), runs: 0, deduped: 4, resumed: 12},
		{name: "checkpoint entries out of range", spec: dupSpec, ckReps: reps,
			folds: map[int]int{0: reps + 1, 1: 0, 4: -1},
			units: deduped(), runs: 24, deduped: 4},
		{name: "checkpoint of other replications", spec: dupSpec, ckReps: reps - 1,
			folds: map[int]int{0: 2, 1: 1},
			units: deduped(), runs: 24, deduped: 4},
		{name: "plain + checkpoint", spec: plain, ckReps: reps, folds: map[int]int{0: 3, 1: 2},
			units: []wantUnit{{cells: []int{0}, folded: 3}, {cells: []int{1}, folded: 2}, {cells: []int{2}}, {cells: []int{3}}},
			runs:  7, resumed: 2},
		{name: "Observe + checkpoint", spec: dupSpec, opt: Options{Observe: observeNone}, ckReps: reps,
			folds: map[int]int{0: 2, 4: 1},
			units: observeSome, runs: 31, resumed: 3},
		{name: "Observe + checkpoint restores all", spec: dupSpec, opt: Options{Observe: observeNone},
			ckReps: reps, folds: all, units: observeAll, runs: 0, resumed: 12},
	} {
		spec := tc.spec(t)
		cells := Cells(spec)
		hashes := CellHashes(spec, cells)
		opt := tc.opt
		opt.Replications = reps
		var ck *checkpointFile
		if tc.ckReps > 0 {
			ck = &checkpointFile{Version: CheckpointVersion, Scenario: spec.Name,
				Replications: tc.ckReps, Cells: map[string]checkpointCell{}}
			for ci, k := range tc.folds {
				// Unfinished marks the accumulator so the test can see it restored.
				ck.Cells[hashes[ci].String()] = checkpointCell{Folded: k, Accum: cellAccum{Unfinished: 100 + k}}
			}
			opt.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
		}
		for _, n := range []int{1, 2, 3} {
			sumRuns, sumDeduped, sumResumed := 0, 0, 0
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("%s/shard %d of %d", tc.name, i, n)
				opt.Shard = ShardSel{Index: i, Count: n}
				if ck != nil {
					// Each shard resumes a file saved under its own selection.
					ck.ShardIndex, ck.ShardCount = i, n
					if err := saveCheckpointFile(opt.Checkpoint, ck); err != nil {
						t.Fatal(err)
					}
				}
				restore, err := resume(&opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				p, err := newPlan(spec, opt, restore)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want []wantUnit
				var wantRuns []owedRun
				settled, cellsDone := len(cells)*reps, len(cells)
				for _, w := range tc.units {
					if hashes[w.cells[0]].ShardOf(n) != i {
						continue
					}
					for rep := w.folded; rep < reps; rep++ {
						wantRuns = append(wantRuns, owedRun{len(want), rep})
						settled -= len(w.cells)
					}
					if w.folded < reps {
						cellsDone -= len(w.cells)
					}
					want = append(want, w)
				}
				if len(p.units) != len(want) {
					t.Fatalf("%s: %d units, want %d", name, len(p.units), len(want))
				}
				for ui, w := range want {
					u := &p.units[ui]
					if !slices.Equal(u.cells, w.cells) || u.folded != w.folded || u.dup != w.dup ||
						u.hash != hashes[w.cells[0]] {
						t.Errorf("%s: unit %d = cells %v folded %d dup %v, want %+v", name, ui, u.cells, u.folded, u.dup, w)
					}
					mark := 0
					if w.folded > 0 {
						mark = 100 + w.folded
					}
					if u.acc.Unfinished != mark {
						t.Errorf("%s: unit %d accumulator mark %d, want %d (the entry it restored from)", name, ui, u.acc.Unfinished, mark)
					}
				}
				if !slices.Equal(p.runs, wantRuns) {
					t.Errorf("%s: owed runs %v, want %v", name, p.runs, wantRuns)
				}
				if p.settled != settled || p.cellsDone != cellsDone {
					t.Errorf("%s: settled %d cellsDone %d, want %d %d", name, p.settled, p.cellsDone, settled, cellsDone)
				}
				sumRuns += len(p.runs)
				sumDeduped += p.deduped
				sumResumed += p.resumed

				// The gauges publish the plan as planned.
				reg := telemetry.NewRegistry()
				m := NewMetrics(reg, 0)
				m.begin(p, 1)
				if got := [3]float64{m.runsTotal.Value(), m.cellsDeduped.Value(), m.cellsResumed.Value()}; got !=
					[3]float64{float64(len(p.runs)), float64(p.deduped), float64(p.resumed)} {
					t.Errorf("%s: runs_total/cells_deduped/cells_resumed gauges = %v", name, got)
				}
			}
			if sumRuns != tc.runs || sumDeduped != tc.deduped || sumResumed != tc.resumed {
				t.Errorf("%s, %d shards: runs_total %d cells_deduped %d cells_resumed %d, want %d %d %d",
					tc.name, n, sumRuns, sumDeduped, sumResumed, tc.runs, tc.deduped, tc.resumed)
			}
		}
	}
}

// TestPlanRejects: the planner owns the grid-level rejections, and the
// checkpoint it restores from is read by resume alone.
func TestPlanRejects(t *testing.T) {
	spec := dupSpec(t)
	for _, sel := range []ShardSel{{Index: 2, Count: 2}, {Index: -1, Count: 3}} {
		if _, err := newPlan(spec, Options{Shard: sel}, nil); err == nil {
			t.Errorf("newPlan accepted shard %d/%d", sel.Index, sel.Count)
		}
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(ck, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resume(&Options{Checkpoint: ck}); err == nil {
		t.Error("resume accepted a corrupt checkpoint")
	}
}

// interruptAfter returns an Options.Interrupted that lets n runs be
// dispatched and then stops the sweep.
func interruptAfter(n int) func() bool {
	polls := 0
	return func() bool { polls++; return polls > n }
}

// matrixSpec has duplicate entries on two axes: 3 availability × 3
// scheduler entries = 9 cells over 4 unique hashes, in groups of 4, 2,
// 2 and 1 cells.
func matrixSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	return parseSpec(t, `{
		"name": "matrixgrid",
		"nodes": [6],
		"schedulers": ["equipartition", "rigid-fcfs", "equipartition"],
		"seed": 29,
		"jobs": 5,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05, "cv": 0.3}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 4},
		"availability": [
			{"process": "none"},
			{"process": "spot", "reclaim_mean_s": 20, "reclaim_nodes": 2,
			 "restore_mean_s": 10, "min_capacity": 2, "horizon_s": 500},
			{"process": "none"}
		]
	}`)
}

// TestDedupShardResumeMatrix: dedup, sharding and resume compose. On a
// grid with duplicate scheduler and availability entries, every
// combination of {dedup, observed (no dedup)} × {1, 2, 3 shards} ×
// {fresh, interrupted and resumed with a checkpoint after every run}
// exports CSV and JSON byte-identical to the fresh single-process run —
// both the whole-grid Run of the one-shard case and the merge of every
// case's completed shard checkpoints.
func TestDedupShardResumeMatrix(t *testing.T) {
	spec := matrixSpec(t)
	const reps = 2
	if p, err := newPlan(spec, Options{Replications: reps}, nil); err != nil || len(p.cells) != 9 || len(p.units) != 4 {
		t.Fatalf("matrix grid should plan 9 cells into 4 units: %+v, %v", p, err)
	}
	ref, err := Run(spec, Options{Replications: reps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := exportBoth(t, spec, ref)
	check := func(name string, stats []CellStats) {
		t.Helper()
		gotCSV, gotJSON := exportBoth(t, spec, stats)
		if gotCSV != wantCSV {
			t.Errorf("%s: CSV differs from the fresh single-process run\n%s\nvs\n%s", name, gotCSV, wantCSV)
		}
		if gotJSON != wantJSON {
			t.Errorf("%s: JSON differs from the fresh single-process run", name)
		}
	}

	for _, observe := range []func(Observation) obs.Probe{nil, observeNone} {
		for _, n := range []int{1, 2, 3} {
			for _, interrupted := range []bool{false, true} {
				name := fmt.Sprintf("observed=%v/shards=%d/interrupted=%v", observe != nil, n, interrupted)
				dir := t.TempDir()
				var paths []string
				for i := 0; i < n; i++ {
					opt := Options{Replications: reps, Workers: 2, Observe: observe, Shard: ShardSel{Index: i, Count: n},
						Checkpoint: filepath.Join(dir, fmt.Sprintf("ck%d.json", i))}
					paths = append(paths, opt.Checkpoint)
					if interrupted {
						// First leg: stop after two dispatched runs. A shard
						// owing no more than that simply completes.
						opt.CheckpointEvery = 1
						opt.Interrupted = interruptAfter(2)
						if _, err := RunShard(spec, opt); err != nil && !errors.Is(err, ErrInterrupted) {
							t.Fatalf("%s shard %d first leg: %v", name, i, err)
						}
						opt.Interrupted = nil
					}
					if n == 1 {
						single, err := Run(spec, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						check(name+"/run", single)
					} else if _, err := RunShard(spec, opt); err != nil {
						t.Fatalf("%s shard %d: %v", name, i, err)
					}
				}
				merged, _, err := MergeShards(spec, paths)
				if err != nil {
					t.Fatalf("%s merge: %v", name, err)
				}
				check(name+"/merge", merged)
			}
		}
	}
}

// TestResumeFromParentCheckpoint is the checkpoint-format compatibility
// contract. testdata/ck_v1_parent.json was written by the engine that
// preceded the plan (per-cell accumulators behind a separate JSON
// mirror): dupSpec at 3 replications, interrupted after 7 runs with the
// frontier in the middle of a cell. The current engine must resume from
// it — dedup on or off (observed) — to exports byte-identical to a
// fresh run, and must write a completed plain sweep's checkpoint
// byte-identical to the old engine's
// (testdata/ck_v1_parent_complete.json: ckSpec, 3 replications).
func TestResumeFromParentCheckpoint(t *testing.T) {
	copyFixture := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const reps = 3
	spec := dupSpec(t)
	fresh, err := Run(spec, Options{Replications: reps})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := exportBoth(t, spec, fresh)
	// 8 units × 3 replications, 7 of them folded by the old engine; with
	// dedup off the 12 cells owe 36 less the restored 3+3+3+1+1.
	for _, tc := range []struct {
		observe func(Observation) obs.Probe
		owed    int
	}{{nil, 17}, {observeNone, 25}} {
		executed := -1
		stats, err := Run(spec, Options{Replications: reps, Observe: tc.observe,
			Checkpoint: copyFixture("ck_v1_parent.json"),
			Progress:   func(done, total int) { executed = total }})
		if err != nil {
			t.Fatal(err)
		}
		if executed != tc.owed {
			t.Errorf("observed=%v: resume executed %d runs, want %d", tc.observe != nil, executed, tc.owed)
		}
		gotCSV, gotJSON := exportBoth(t, spec, stats)
		if gotCSV != wantCSV || gotJSON != wantJSON {
			t.Errorf("observed=%v: exports resumed from the old engine's checkpoint differ from a fresh run", tc.observe != nil)
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "ck_v1_parent_complete.json"))
	if err != nil {
		t.Fatal(err)
	}
	plain := ckSpec(t, "[0.5, 1.0]")
	for name, ck := range map[string]string{
		"fresh":   filepath.Join(t.TempDir(), "ck.json"),
		"resumed": copyFixture("ck_v1_parent_complete.json"),
	} {
		if _, err := Run(plain, Options{Replications: reps, Workers: 2, Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: completed checkpoint differs from the old engine's:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// TestMetricsFinalValuesMatchParent: the deterministic families' final
// values for a plain, a dedup'd, a resumed and a sharded sweep are the
// ones the slot-indexed engine before the plan published
// (testdata/metrics_final_parent.golden, recorded from it).
func TestMetricsFinalValuesMatchParent(t *testing.T) {
	var out strings.Builder
	expose := func(name string, run func(m *Metrics) error) {
		t.Helper()
		reg := telemetry.NewRegistry()
		m := NewMetrics(reg, 1)
		if err := run(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "## %s\n", name)
		if err := reg.Snapshot().Filter(m.DeterministicMetricNames()...).WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
	}
	expose("plain", func(m *Metrics) error {
		_, err := Run(metricsSpec(t), Options{Replications: 2, Workers: 2, Metrics: m})
		return err
	})
	expose("dedup", func(m *Metrics) error {
		_, err := Run(dupSpec(t), Options{Replications: 2, Workers: 2, Metrics: m})
		return err
	})
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := Run(dupSpec(t), Options{Replications: 3, Workers: 1,
		Checkpoint: ck, CheckpointEvery: 1, Interrupted: interruptAfter(7)}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	expose("resumed", func(m *Metrics) error {
		_, err := Run(dupSpec(t), Options{Replications: 3, Workers: 2, Metrics: m, Checkpoint: ck})
		return err
	})
	for i := 0; i < 2; i++ {
		expose(fmt.Sprintf("shard %d/2", i), func(m *Metrics) error {
			_, err := RunShard(dupSpec(t), Options{Replications: 2, Workers: 2, Metrics: m,
				Shard: ShardSel{Index: i, Count: 2}, Checkpoint: filepath.Join(t.TempDir(), "shard.json")})
			return err
		})
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_final_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Values are pinned, HELP/TYPE wording is not.
	samples := func(text string) string {
		var keep []string
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "# ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if got, want := samples(out.String()), samples(string(want)); got != want {
		t.Errorf("final deterministic metrics differ from the recorded ones:\n--- got\n%s--- want\n%s", got, want)
	}
}
