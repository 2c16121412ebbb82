// Package appmodel is the application performance-model subsystem of the
// malleable cluster simulator: pluggable analytical models of how one
// phase's execution time responds to the number of allocated nodes.
//
// The paper's core object is the application — a parallel program whose
// execution time varies with a dynamically changing node allocation. This
// package makes that response curve a first-class, pluggable axis,
// built like the scheduling-policy subsystem (internal/sched) over the
// shared spec kernel (internal/spec): an AppModel interface, a
// self-registering case-insensitive registry
// (Register/New/ByName/Names), Params for construction parameters, and
// "name(key=value,...)" spec strings via ParseSpec/FormatSpec that
// round-trip through scenario JSON, sweep-grid labels and CLI flags.
//
// The registered names state four curves, each once:
//
//   - comm-factor (CommFactor) — eff(p) = 1/(1 + C·(p-1)), the curve
//     sched.Phase.Efficiency computes from its Comm field (both call
//     CommEfficiency). lu, synthetic and stencil are the simulator's
//     classic job mixes; amdahl is Amdahl's law with serial fraction f,
//     which is this curve with C = f: speedup(n) = n / (1 + f·(n-1)).
//   - downey — Downey's A–σ model of malleable-job speedup (average
//     parallelism A, coefficient of variance σ).
//   - comm-bound — latency/bandwidth-bound stencil-style phase:
//     time(w, n) = w/n + α + β/n for n > 1.
//   - roofline — linear speedup up to a memory-bandwidth saturation
//     point: speedup(n) = min(n, sat). fixed, a rigid application with
//     speedup 1 at any allocation, is roofline with sat = 1.
//
// Every model also prices its own reconfiguration: each built-in one
// accepts the shared parameters migrate_s and ckpt_s (see Costs), which
// set its migration pause and checkpoint rollback distance, and the
// cluster simulator charges them through its reconfiguration-cost path.
//
// Model evaluation sits on the scheduler-invocation hot path: a job
// carrying a model (sched.Job.Model) has every phase's rate and
// efficiency evaluated through it, at every scheduling event.
// Implementations must therefore be allocation-free per call — pure
// float math over parameters fixed at construction. Cost-free
// comm-factor models (amdahl included) are lowered onto the phase's Comm
// field by the scenario layer (the curves are identical by
// construction), so they keep the simulator's inlined fast path.
package appmodel

import "errors"

var errNegativeCost = errors.New("appmodel: migrate_s and ckpt_s must be >= 0")

// AppModel is one application performance model: a response curve from
// (serial work, node allocation) to execution behavior, and the price of
// changing that allocation. Implementations must be immutable after
// construction and allocation-free per call — they are evaluated inside
// the simulator's zero-allocation event loop.
//
// Rate and Efficiency are two views of one curve: Efficiency =
// Rate/nodes. Rate is the primary quantity the simulator consumes
// (work-seconds of progress per wall-clock second, i.e. the speedup over
// serial execution); a phase of w work-seconds takes w/Rate seconds.
// Both return 0 at nodes <= 0, so callers need no guard of their own.
type AppModel interface {
	// Name returns the model's canonical registered name.
	Name() string
	// Rate returns the phase's progress in work-seconds per wall-clock
	// second on `nodes` nodes — the speedup over serial execution. It
	// returns 0 when nodes <= 0.
	Rate(work float64, nodes int) float64
	// Efficiency returns Rate/nodes, the per-node efficiency in (0, 1].
	// It returns 0 when nodes <= 0.
	Efficiency(work float64, nodes int) float64
	// MigrationS returns the extra seconds of redistribution pause
	// charged whenever a running job is resized to another non-zero
	// allocation — repartitioning, checkpoint/restart, process
	// migration. It is added to the cluster's per-node redistribution
	// charge for the same resize.
	MigrationS() float64
	// CheckpointLossS returns the extra work-seconds lost per node
	// abruptly reclaimed from the job (no-notice capacity drop) — the
	// rollback distance to the model's last consistent checkpoint. It is
	// added to the cluster's per-node lost-work charge.
	CheckpointLossS() float64
}

// Costs is AppModel's two cost methods, embedded by every built-in model
// and parsed from the common migrate_s and ckpt_s parameters. The zero
// value prices nothing, leaving the cluster-wide cost model alone.
type Costs struct {
	// MigrateS is a flat pause in seconds charged per resize of a
	// running job (the model's repartitioning time).
	MigrateS float64
	// CkptS is the work-seconds lost per abruptly reclaimed node (the
	// model's checkpoint distance).
	CkptS float64
}

// MigrationS implements AppModel.
func (c Costs) MigrationS() float64 { return c.MigrateS }

// CheckpointLossS implements AppModel.
func (c Costs) CheckpointLossS() float64 { return c.CkptS }

// costsFromParams rejects any key outside the model's own allowed set
// plus the shared migrate_s/ckpt_s, and extracts those two.
func costsFromParams(p Params, model string, allowed ...string) (Costs, error) {
	if err := p.Check("appmodel", model, append(allowed, "migrate_s", "ckpt_s")...); err != nil {
		return Costs{}, err
	}
	c := Costs{MigrateS: p.Float("migrate_s", 0), CkptS: p.Float("ckpt_s", 0)}
	if c.MigrateS < 0 || c.CkptS < 0 {
		return Costs{}, errNegativeCost
	}
	return c, nil
}
