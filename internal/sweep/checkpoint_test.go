package sweep

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpsim/internal/scenario"
	"dpsim/internal/trace"
)

// ckSpec is a 4-cell grid (2 loads × 2 schedulers) whose loads axis the
// incremental-resweep test widens.
func ckSpec(t *testing.T, loads string) *scenario.Spec {
	t.Helper()
	return parseSpec(t, `{
		"name": "ckgrid",
		"nodes": [4],
		"loads": `+loads+`,
		"schedulers": ["equipartition", "rigid-fcfs"],
		"seed": 11,
		"jobs": 5,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05, "cv": 0.3}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 4}
	}`)
}

// TestInterruptResumeByteIdentical is the crash-resume contract: a sweep
// interrupted mid-run and resumed from its checkpoint exports CSV and
// JSON byte-identical to an uninterrupted run — without re-executing
// the folded replications.
func TestInterruptResumeByteIdentical(t *testing.T) {
	spec := ckSpec(t, "[0.5, 1.0]")
	const reps = 3
	full, err := Run(spec, Options{Replications: reps, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := exportBoth(t, spec, full)

	ck := filepath.Join(t.TempDir(), "ck.json")
	polls := 0
	_, err = Run(spec, Options{
		Replications: reps, Workers: 2, Checkpoint: ck, CheckpointEvery: 1,
		Interrupted: func() bool { polls++; return polls > 4 },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	executed := -1
	stats, err := Run(spec, Options{
		Replications: reps, Workers: 2, Checkpoint: ck,
		Progress: func(done, total int) { executed = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(Cells(spec)) * reps
	if executed < 0 || executed >= total {
		t.Fatalf("resume executed %d of %d runs — nothing restored", executed, total)
	}
	gotCSV, gotJSON := exportBoth(t, spec, stats)
	if gotCSV != wantCSV {
		t.Fatalf("resumed CSV differs\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	if gotJSON != wantJSON {
		t.Fatal("resumed JSON differs")
	}
}

// TestIncrementalResweep: after a grid edit, a checkpointed re-sweep
// runs only the cells whose hash is new and still exports byte-identical
// to a fresh full run of the edited scenario.
func TestIncrementalResweep(t *testing.T) {
	const reps = 2
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := Run(ckSpec(t, "[0.5, 1.0]"), Options{Replications: reps, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}

	edited := ckSpec(t, "[0.5, 0.75, 1.0]")
	fresh, err := Run(edited, Options{Replications: reps})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := exportBoth(t, edited, fresh)

	executed := -1
	stats, err := Run(ckSpec(t, "[0.5, 0.75, 1.0]"), Options{
		Replications: reps, Checkpoint: ck,
		Progress: func(done, total int) { executed = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the two load-0.75 cells are new.
	if want := 2 * reps; executed != want {
		t.Fatalf("incremental re-sweep executed %d runs, want %d", executed, want)
	}
	gotCSV, gotJSON := exportBoth(t, edited, stats)
	if gotCSV != wantCSV || gotJSON != wantJSON {
		t.Fatal("incremental re-sweep exports differ from a fresh run")
	}
}

// TestCompletedCheckpointSkipsAllWork: re-running an already-complete
// checkpointed sweep executes nothing and reproduces the exports.
func TestCompletedCheckpointSkipsAllWork(t *testing.T) {
	spec := ckSpec(t, "[0.5, 1.0]")
	ck := filepath.Join(t.TempDir(), "ck.json")
	first, err := Run(spec, Options{Replications: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, _ := exportBoth(t, spec, first)
	calls := 0
	again, err := Run(spec, Options{Replications: 2, Checkpoint: ck,
		Progress: func(done, total int) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("fully-checkpointed sweep still executed %d runs", calls)
	}
	gotCSV, _ := exportBoth(t, spec, again)
	if gotCSV != wantCSV {
		t.Fatal("restored exports differ")
	}
}

// TestCheckpointRepsMismatchIgnored: a checkpoint taken at a different
// replication count aggregates a different run set, so it must be
// ignored wholesale rather than merged.
func TestCheckpointRepsMismatchIgnored(t *testing.T) {
	spec := ckSpec(t, "[0.5, 1.0]")
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := Run(spec, Options{Replications: 2, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	executed := -1
	fresh, err := Run(spec, Options{Replications: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(spec, Options{Replications: 3, Checkpoint: ck,
		Progress: func(done, total int) { executed = total }})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Cells(spec)) * 3; executed != want {
		t.Fatalf("executed %d runs, want full %d (mismatched checkpoint must not restore)", executed, want)
	}
	wantCSV, _ := exportBoth(t, spec, fresh)
	gotCSV, _ := exportBoth(t, spec, stats)
	if gotCSV != wantCSV {
		t.Fatal("exports differ")
	}
}

// TestErrorResumeByteIdentical: a replication that fails must not be
// recorded as folded by the final checkpoint, so resuming after a
// transient error (here a missing trace file that appears before the
// retry) re-runs it and still exports byte-identical to a clean run.
func TestErrorResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "jobs.csv")
	// The trace path rides in the cell hash, so the spec identifies the
	// same cells whether or not the file exists yet.
	spec := func() *scenario.Spec {
		return parseSpec(t, `{
			"name": "errgrid",
			"nodes": [4],
			"loads": [0.5, 1.0],
			"schedulers": ["equipartition", "rigid-fcfs"],
			"seed": 17,
			"jobs": 4,
			"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
			"arrivals": [
				{"process": "poisson", "mean_interarrival_s": 4},
				{"process": "trace", "path": "`+tracePath+`"}
			]
		}`)
	}
	const reps = 2
	ck := filepath.Join(dir, "ck.json")

	// With the trace file missing, the four poisson cells (first in grid
	// order) fold and checkpoint, then the first trace-replay cell fails
	// with an I/O error and the sweep fail-fasts.
	_, err := Run(spec(), Options{Replications: reps, Workers: 1, Checkpoint: ck, CheckpointEvery: 1})
	if err == nil {
		t.Fatal("expected a trace I/O error")
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint after the failed sweep: %v", err)
	}

	// The transient error goes away: the trace file appears.
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJobs(f, []trace.JobRecord{
		{ID: 0, Arrival: 0, MaxNodes: 4, Phases: []trace.PhaseRecord{{Work: 10, Comm: 0.1}}},
		{ID: 1, Arrival: 6, Phases: []trace.PhaseRecord{{Work: 8, Comm: 0.05}}},
		{ID: 2, Arrival: 15, Phases: []trace.PhaseRecord{{Work: 5, Comm: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fresh, err := Run(spec(), Options{Replications: reps})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := exportBoth(t, spec(), fresh)

	executed := -1
	stats, err := Run(spec(), Options{
		Replications: reps, Checkpoint: ck,
		Progress: func(done, total int) { executed = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The four poisson cells restore; all four trace cells re-run —
	// including the replication that errored. If the failed run had been
	// checkpointed as folded, the resume would skip it and export
	// aggregates silently missing its data.
	if want := 4 * reps; executed != want {
		t.Fatalf("resume executed %d runs, want %d (every trace replication)", executed, want)
	}
	gotCSV, gotJSON := exportBoth(t, spec(), stats)
	if gotCSV != wantCSV {
		t.Fatalf("error-resumed CSV differs\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	if gotJSON != wantJSON {
		t.Fatal("error-resumed JSON differs")
	}
}

// TestRestoreCopiesResponses: with dedup off (an observed sweep), the
// units of one hash all restore from the same decoded checkpoint entry,
// and each accumulator appends to and sorts its buffer in place — so
// the plan must copy the responses slice into each unit, not adopt it.
func TestRestoreCopiesResponses(t *testing.T) {
	spec := dupSpec(t)
	h := CellHashes(spec, Cells(spec))[0] // equipartition: cells 0 and 2
	restore := map[string]checkpointCell{
		h.String(): {Folded: 1, Accum: cellAccum{Responses: []float64{3, 1, 2}}},
	}
	p, err := newPlan(spec, Options{Replications: 2, Observe: observeNone}, restore)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &p.units[0], &p.units[2]
	if a.hash != h || b.hash != h || a.folded != 1 || b.folded != 1 || !b.dup {
		t.Fatalf("units 0 and 2 should both restore hash %s: %+v, %+v", h, a, b)
	}
	a.acc.Responses[0] = 99
	if b.acc.Responses[0] != 3 || restore[h.String()].Accum.Responses[0] != 3 {
		t.Fatalf("restored units alias one responses buffer: %v", b.acc.Responses)
	}
}

// TestCheckpointCorruptRejected: an unreadable checkpoint is an error,
// not a silent full re-run.
func TestCheckpointCorruptRejected(t *testing.T) {
	spec := ckSpec(t, "[0.5]")
	ck := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(ck, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Replications: 1, Checkpoint: ck}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if err := os.WriteFile(ck, []byte(`{"version": 99, "cells": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Replications: 1, Checkpoint: ck}); err == nil {
		t.Fatal("foreign checkpoint version accepted")
	}
}

// TestResumeRejectsOtherShard: a checkpoint records the shard selection
// that saved it, and a resume under another selection — shard 1 pointed
// at shard 0's file, a whole-grid run at a shard's, a shard at a
// whole-grid run's — is an error that leaves the file alone, instead of
// one run silently overwriting another's artifact.
func TestResumeRejectsOtherShard(t *testing.T) {
	spec := dupSpec(t)
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.json")
	whole := filepath.Join(dir, "whole.json")
	if _, err := RunShard(spec, Options{Replications: 1, Shard: ShardSel{0, 2}, Checkpoint: s0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Replications: 1, Checkpoint: whole}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path  string
		sel   ShardSel
		saved string
	}{
		{s0, ShardSel{1, 2}, "0/2"},
		{s0, ShardSel{0, 3}, "0/2"},
		{s0, ShardSel{}, "0/2"},
		{s0, ShardSel{0, 1}, "0/2"},
		{whole, ShardSel{0, 2}, "0/1"},
	} {
		before, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunShard(spec, Options{Replications: 1, Shard: tc.sel, Checkpoint: tc.path})
		if err == nil || !strings.Contains(err.Error(), "saved by shard "+tc.saved) {
			t.Errorf("shard %d/%d resumed the checkpoint of shard %s: %v", tc.sel.Index, tc.sel.Count, tc.saved, err)
		}
		if after, _ := os.ReadFile(tc.path); !bytes.Equal(after, before) {
			t.Errorf("shard %d/%d rewrote the checkpoint of shard %s", tc.sel.Index, tc.sel.Count, tc.saved)
		}
	}
	// The saving selection resumes, with nothing left to run.
	calls := 0
	if _, err := RunShard(spec, Options{Replications: 1, Shard: ShardSel{0, 2}, Checkpoint: s0,
		Progress: func(int, int) { calls++ }}); err != nil || calls != 0 {
		t.Fatalf("shard 0/2 resuming its own completed checkpoint: %d runs, %v", calls, err)
	}
}
