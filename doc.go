// Package dpsim is a Go reproduction of "A simulator for parallel
// applications with dynamically varying compute node allocation"
// (B. Schaeli, S. Gerlach, R. D. Hersch, EPFL — IPPS 2006).
//
// The repository contains the full system the paper describes:
//
//   - internal/dps — the Dynamic Parallel Schedules (DPS) framework model:
//     flow graphs of split/merge/stream/leaf operations, typed data
//     objects, runtime routing functions, thread collections with dynamic
//     width and placement, flow control; and the execution rules both
//     executors below apply (exec.go).
//   - internal/core — the simulation engine: direct execution of the DPS
//     runtime and application code with atomic-step accounting; one
//     duration source per run that decides what a computation costs and
//     whether its kernel runs (direct execution, the PDEXEC calibration
//     table, the analytic model); the NOALLOC mode; and the paper's network
//     (t = l + s/b with equal-share contention) and CPU (processor sharing
//     plus communication overhead) models.
//   - internal/testbed — a high-fidelity virtual cluster standing in for
//     the paper's 8×UltraSparc II / Fast Ethernet testbed (packetized
//     network, jitter, per-node speed variation): the "Measurement" series.
//   - internal/parallel, internal/transport — the real concurrent DPS
//     runtime: goroutine execution threads on a loopback TCP mesh, pinned
//     against internal/core on LU and stencil (TestRealRuntimeMatchesEngine).
//   - internal/lu — the paper's test application: parallel block LU
//     factorization in the basic, pipelined (P), flow-controlled (FC) and
//     parallel-sub-block-multiplication (PM) variants, with dynamic
//     multiplication-thread removal.
//   - internal/experiments — regenerates Table 1, Figs. 8–13, the model
//     ablations and the flow-control window sweep. Every engine run goes
//     through its one LU run path (runLU), the only owner of the engine
//     overheads the simulator charges per step.
//   - internal/cluster — the §9 future work: a malleable cluster server,
//     drivable run-to-completion or through step primitives
//     (PeekNextEventTime/ProcessNextEvent/Inject) for open arrivals, with
//     a time-varying node pool (capacity changes preempt and reallocate
//     jobs) and a reconfiguration-cost model (data-redistribution pauses
//     on allocation deltas, lost work on abrupt reclaims).
//   - internal/sched — the scheduling-policy subsystem: the Scheduler
//     interface and scheduler-visible state views, a self-registering
//     policy registry (Register/ByName/Names, with per-policy parameters
//     and "name(key=value,...)" spec strings), eight built-in policies
//     spanning the rigidity spectrum (rigid-fcfs, easy-backfill,
//     moldable, sjf-moldable, equipartition, fair-share,
//     efficiency-greedy, malleable-hysteresis), every one certified by
//     the one invariant harness, internal/federation's CheckInvariants,
//     on one-member and multi-member fleets under randomized workloads
//     and availability timelines. The allocation contract is buffer-reuse
//     based: Allocate writes into a caller-provided slice indexed like
//     the value-typed State.Active snapshot, and policies keep
//     per-instance scratch buffers, which makes the simulator's
//     scheduler-invocation hot path allocation-free in steady state
//     (asserted by testing.AllocsPerRun regression tests in both
//     packages). The simulator checks every grant against the contract
//     and panics on any out-of-contract allocation.
//   - internal/appmodel — the application performance-model subsystem:
//     the AppModel interface (rate and efficiency, two views of one
//     curve, as a function of work and allocation), a self-registering
//     registry mirroring internal/sched (Register/ByName/Names, Params,
//     "name(key=value,...)" spec strings) whose eight names state four
//     curves — comm-factor (amdahl and the classic mix shapes lu,
//     synthetic, stencil), downey, comm-bound and roofline (fixed is
//     roofline at one node) — and per-model migration/checkpoint cost
//     hooks (migrate_s, ckpt_s)
//     charged through the cluster's reconfiguration-cost path.
//   - internal/availability — node-availability dynamics: deterministic
//     generators for maintenance windows, exponential/Weibull
//     failure/repair processes, spot-style preemption with reclaim
//     notice, desktop-grid churn, and capacity-trace replay, all seeded
//     through forked internal/rng streams.
//   - internal/scenario — declarative cluster scenarios: JSON specs with
//     weighted job mixes (LU-profile, synthetic, stencil-derived,
//     per-component fair-share job weights), pluggable arrival processes
//     (closed, Poisson, bursty MMPP, diurnal, trace replay),
//     availability processes, parameterized scheduler blocks and an
//     application performance-model axis (appmodels), generated through
//     forked deterministic RNG streams.
//   - internal/sweep — expands a scenario into an experiment grid (arrival
//     × availability × nodes × load × scheduler × appmodel), runs it on a
//     parallel worker pool with seed replications, and
//     aggregates/exports results as CSV/JSON.
//   - internal/obs — the observability layer: a Probe interface hooked
//     into every cluster.Sim state transition (zero-cost when disabled —
//     one nil-check branch per hook site, preserving the 0 allocs/op
//     steady state), a ring-buffered Recorder with fixed-interval
//     time-series sampling on the virtual clock, and exporters for
//     Chrome trace-event JSON (Perfetto), time-series CSV and
//     run-summary JSON, wired into dpssweep and lusim.
//   - internal/docs — documentation-drift checks: markdown link check,
//     scenario-schema and export-column cross-checks against docs/.
//
// Entry points: cmd/paperrepro (all tables and figures), cmd/lusim (one
// configuration, predicted and drawn as a timing diagram), cmd/dpssweep (the
// multi-application scheduler comparison as scenario-driven parallel
// experiment sweeps), and the runnable programs in examples/.
package dpsim
