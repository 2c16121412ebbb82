// Package telemetry is the simulator process's runtime metrics
// substrate: where internal/obs observes the *simulated* system in
// virtual time, telemetry measures the *simulator itself* in wall-clock
// time — sweep throughput, worker utilization, Go heap and GC pressure —
// and serves it over HTTP while a run is in flight.
//
// The package has three layers:
//
//   - Registry: a lock-free metrics registry. Counter, Gauge and
//     Histogram handles are registered once at setup and then updated
//     with single atomic operations — the hot path never takes a lock
//     and never allocates, and scrapes never block writers (Snapshot
//     copies atomically-loaded values under a read lock that update
//     paths do not touch). Histograms reuse internal/obs's log-spaced
//     power-of-two microsecond bucketing, so wall-clock and
//     simulated-time latency distributions bucket identically.
//
//   - Exposition: Snapshot renders as Prometheus text exposition format
//     (HELP/TYPE comments, escaped labels, cumulative histogram buckets)
//     or as JSON, deterministically — identical snapshots serialize to
//     identical bytes.
//
//   - Server: an opt-in HTTP endpoint serving /metrics (text or
//     ?format=json), /progress (live sweep progress: done/total,
//     throughput, per-worker busy fractions, ETA), /healthz, and
//     net/http/pprof under /debug/pprof/ for live profiling.
//
// internal/sweep instruments its worker pool on top of this package
// (sweep.Metrics), and cmd/dpssweep exposes it via -telemetry-addr.
// The registry is generic: the upcoming dpsserve
// service and sharded sweep engine register their own families the same
// way. See docs/telemetry.md for the endpoint and metric reference.
package telemetry
