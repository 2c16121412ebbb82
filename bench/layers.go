package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"dpsim/internal/eventq"
	"dpsim/internal/obs"
	"dpsim/internal/rng"
	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
	"dpsim/internal/telemetry"
)

// traceScenario is the traced pass of a scenario workload: single
// threaded, in process, max(1, R/4) replications of every cell through
// the mirror driver, then the isolated sweep, eventq and obs
// measurements. It returns the per-layer metric values it produced;
// layers the workload never enters are simply absent (reported as 0).
func (b *bench) traceScenario(p *prepared, tr *tracer) (map[string]float64, error) {
	w, spec := p.w, p.spec
	m := &mirror{tr: tr}
	reps := max(1, w.reps/4)
	// plainNS and obsNS time Spec.RunCell, without and with a recorder,
	// on replication 0 of every cell; tracedNS is the mirror on the same
	// (cell, seed) pairs.
	var plainNS, obsNS, tracedNS int64
	for rep := 0; rep < reps; rep++ {
		for ci, c := range p.cells {
			seed := runSeed(p.hashes[ci], rep)
			t0 := nanos()
			got, err := m.runCell(spec, c, seed, runID(p.hashes[ci], rep))
			dt := nanos() - t0
			if err != nil {
				return nil, fmt.Errorf("mirror: cell %d rep %d: %w", ci, rep, err)
			}
			if rep > 0 {
				continue
			}
			tracedNS += dt
			params := cellParams(c, seed)
			t0 = nanos()
			want, err := spec.RunCell(params)
			plainNS += nanos() - t0
			if err != nil {
				return nil, fmt.Errorf("RunCell: cell %d: %w", ci, err)
			}
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("mirror driver diverged from Spec.RunCell on cell %d (%s)", ci, p.hashes[ci])
			}
			params.Probe = obs.NewRecorder(obs.Config{Label: c.Scheduler})
			t0 = nanos()
			if _, err := spec.RunCell(params); err != nil {
				return nil, fmt.Errorf("RunCell+recorder: cell %d: %w", ci, err)
			}
			obsNS += nanos() - t0
		}
	}

	tot := tr.totals()
	runNS := float64(tot["scenario.run"].busyNS)
	out := map[string]float64{
		"scenario.load_s": summarize(p.loadS).Value,
		"sweep.plan_s":    summarize(p.planS).Value,

		"scenario.stream_ns_per_job": ratio(float64(tot["scenario.stream"].busyNS), float64(m.generated)),
		"scenario.stream_share":      ratio(float64(tot["scenario.stream"].busyNS), runNS),

		"availability.generate_ns_per_run": ratio(float64(tot["availability.generate"].busyNS), float64(m.availRuns)),
		"availability.changes_per_run":     ratio(float64(m.availChanges), float64(m.availRuns)),

		"cluster.new_ns_per_run":          ratio(float64(tot["cluster.new"].busyNS), float64(m.runs)),
		"cluster.inject_ns_per_job":       tot["cluster.inject"].perCall(),
		"cluster.result_ns_per_run":       ratio(float64(tot["cluster.result"].busyNS+tot["federation.merged"].busyNS), float64(m.runs)),
		"cluster.reallocations_per_run":   ratio(float64(m.reallocations), float64(m.runs)),
		"cluster.capacity_events_per_run": ratio(float64(m.capacityEvents), float64(m.runs)),
		"cluster.lost_work_s_per_run":     ratio(m.lostWorkS, float64(m.runs)),

		"sched.allocate_ns_per_invoke": tot["sched.allocate"].perCall(),
		"sched.invocations":            float64(tot["sched.allocate"].calls),
		"sched.share":                  ratio(float64(tot["sched.allocate"].busyNS), runNS),

		"obs.recorder_overhead_ratio": ratio(float64(obsNS), float64(plainNS)),
		"trace.overhead_ratio":        ratio(float64(tracedNS), float64(plainNS)),
	}
	// The cluster step is called directly on the plain path. A federated
	// step is the member scan (the same loop PeekNextEventTime runs) plus
	// one member's step, so the scan's measured cost is taken off.
	step := tot["cluster.step"]
	stepNS := float64(step.busyNS)
	if spec.Federation != nil {
		step = tot["federation.step"]
		peek := tot["federation.peek"]
		stepNS = float64(step.busyNS) - float64(step.calls)*peek.perCall()
		out["federation.step_ns_per_event"] = step.perCall()
		out["federation.peek_ns_per_call"] = peek.perCall()
		out["federation.offer_ns_per_job"] = tot["federation.offer"].perCall()
		out["federation.admit_ns_per_job"] = tot["federation.admit"].perCall()
		out["federation.route_ns_per_job"] = tot["federation.route"].perCall()
		out["federation.rejected_share"] = ratio(float64(m.rejected), float64(m.generated))
	}
	events := float64(step.calls)
	out["cluster.events"] = events
	out["cluster.step_ns_per_event"] = ratio(stepNS, events)
	out["cluster.step_self_ns_per_event"] = ratio(stepNS-float64(tot["sched.allocate"].busyNS), events)
	out["cluster.step_share"] = ratio(stepNS, runNS)
	out["cluster.events_per_s"] = ratio(events, runNS/1e9)
	out["cluster.allocs_per_event"] = ratio(float64(m.mallocs), events)
	p50, maxActive := m.activeQuantiles()
	out["cluster.active_p50"] = float64(p50)
	out["cluster.active_max"] = float64(maxActive)

	// The queue holds one pending phase event per active job plus, on a
	// volatile pool, the next capacity change.
	depth := p50 + 1
	if m.availRuns > 0 {
		depth++
	}
	pp, rs, cn := eventqReplay(depth)
	out["eventq.push_pop_ns"], out["eventq.reschedule_ns"], out["eventq.cancel_ns"] = pp, rs, cn

	if w.sweepLayer {
		if err := b.traceSweep(p, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workerBusyNS reads sweep's existing per-worker busy counter back from
// the registry (registration is idempotent: same name and label, same
// counter).
func workerBusyNS(reg *telemetry.Registry, worker int) int64 {
	return reg.Counter("dpsim_sweep_worker_busy_ns_total",
		"Wall-clock nanoseconds worker spent running replications.",
		telemetry.L("worker", strconv.Itoa(worker))).Value()
}

// traceSweep times the sweep layer alone: the in-process grid at one
// worker (dispatch + fold overhead is the wall time the worker was not
// busy), the two exports, and — on the checkpointing workload — the same
// grid with Options.Checkpoint, whose extra wall time is the checkpoint.
func (b *bench) traceSweep(p *prepared, tr *tracer, out map[string]float64) error {
	w := p.w
	run := func(name string, opt sweep.Options) ([]sweep.CellStats, float64, error) {
		opt.Replications, opt.Workers = w.reps, 1
		id := tr.open(name, p.w.name, -1)
		stats, err := sweep.Run(p.spec, opt)
		tr.close(id)
		return stats, float64(tr.spans[id].EndNS-tr.spans[id].StartNS) / 1e9, err
	}
	reg := telemetry.NewRegistry()
	stats, runS, err := run("sweep.run", sweep.Options{Metrics: sweep.NewMetrics(reg, 1)})
	if err != nil {
		return err
	}
	out["sweep.run_s"] = runS
	out["sweep.overhead_ns_per_run"] = ratio(runS*1e9-float64(workerBusyNS(reg, 0)), float64(w.runs))

	var csvBuf, jsonBuf bytes.Buffer
	t0 := nanos()
	err = sweep.WriteCSV(&csvBuf, p.spec.Name, stats)
	t1 := nanos()
	if err == nil {
		err = sweep.WriteJSON(&jsonBuf, p.spec.Name, stats)
	}
	t2 := nanos()
	if err != nil {
		return err
	}
	tr.once("sweep.export_csv", w.name, -1, t0, t1)
	tr.once("sweep.export_json", w.name, -1, t1, t2)
	out["sweep.export_csv_s"] = float64(t1-t0) / 1e9
	out["sweep.export_json_s"] = float64(t2-t1) / 1e9
	// One worker in process must export what two workers exported from
	// the child: the determinism contract, checked across the process
	// boundary.
	if p.childSHA != "" && sha(csvBuf.Bytes(), jsonBuf.Bytes()) != p.childSHA {
		return fmt.Errorf("in-process sweep.Run exports differ from the dpssweep child's")
	}

	if !w.checkpoint {
		return nil
	}
	// Both sides of the subtraction run bare (no Metrics), so the
	// difference is the checkpoint alone.
	_, bareS, err := run("sweep.run_bare", sweep.Options{})
	if err != nil {
		return err
	}
	ck := filepath.Join(p.dir, "trace-checkpoint.json")
	_, ckS, err := run("sweep.run_checkpoint", sweep.Options{Checkpoint: ck})
	if err != nil {
		return err
	}
	info, err := os.Stat(ck)
	if err != nil {
		return err
	}
	out["sweep.checkpoint_overhead_s"] = ckS - bareS
	out["sweep.checkpoint_bytes"] = float64(info.Size())
	return nil
}

// eventqReplay times eventq.Queue's three hot operations at a steady
// depth, in nanoseconds per operation: pop the earliest event and push
// a fresh one (the DPS engine's pattern), move a pending event in place
// (the cluster step's, one per job whose rate changed), and cancel then
// re-queue a pending event (a member's capacity timeline suspending and
// resuming).
func eventqReplay(depth int) (pushPopNS, rescheduleNS, cancelNS float64) {
	const ops = 200000
	r := rng.New(uint64(depth))
	delay := func() eventq.Duration { return eventq.Duration(1 + r.Uint64()%uint64(eventq.Second)) }
	nop := func() {}
	fill := func() (*eventq.Queue, []*eventq.Event) {
		q := eventq.New()
		evs := make([]*eventq.Event, depth)
		for i := range evs {
			evs[i] = q.After(delay(), nop)
		}
		return q, evs
	}

	q := eventq.New()
	var repush func()
	repush = func() { q.After(delay(), repush) }
	for i := 0; i < depth; i++ {
		q.After(delay(), repush)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		q.Step()
	}
	pushPopNS = float64(time.Since(start).Nanoseconds()) / ops

	q, evs := fill()
	start = time.Now()
	for i := 0; i < ops; i++ {
		k := i % depth
		evs[k] = q.RescheduleAfter(evs[k], delay(), nop)
	}
	rescheduleNS = float64(time.Since(start).Nanoseconds()) / ops

	q, evs = fill()
	start = time.Now()
	for i := 0; i < ops; i++ {
		k := i % depth
		q.Cancel(evs[k])
		evs[k] = q.ReuseAfter(evs[k], delay(), nop)
	}
	cancelNS = float64(time.Since(start).Nanoseconds()) / ops
	return pushPopNS, rescheduleNS, cancelNS
}

// setupPass is one in-process pass from input file to ready-to-run:
// scenario.Load (which validates), then the sweep plan (Cells +
// CellHashes); on paper-lu, every flow graph built. It appends the
// pass's times to the workload's samples.
func (p *prepared) setupPass() error {
	if p.w.file == "" {
		s, err := measurePaperSetup()
		p.setupS = append(p.setupS, s)
		return err
	}
	t0 := nanos()
	spec, err := scenario.Load(p.scenarioPath)
	if err != nil {
		return err
	}
	t1 := nanos()
	cells := sweep.Cells(spec)
	hashes := sweep.CellHashes(spec, cells)
	t2 := nanos()
	p.spec, p.cells, p.hashes = spec, cells, hashes
	p.setupS = append(p.setupS, float64(t2-t0)/1e9)
	p.loadS = append(p.loadS, float64(t1-t0)/1e9)
	p.planS = append(p.planS, float64(t2-t1)/1e9)
	return nil
}
