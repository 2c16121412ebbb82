// Package eventq implements the discrete-event core shared by the DPS
// simulator and the virtual cluster testbed: a virtual clock and a
// 4-ary min-heap of timestamped events with deterministic tie-breaking.
// (The ordering key is a strict total order, so pop order — and thus
// every simulation outcome — is independent of the heap's arity and
// internal arrangement; the wide layout just halves the sift depth.)
//
// Virtual time is an int64 count of nanoseconds. Fluid models (network
// bandwidth sharing, processor sharing) compute rates in float64 and
// round the resulting completion instants to nanoseconds; one nanosecond
// of quantization is far below every effect the models represent.
//
// Three-level tie-breaking makes event order a pure function of the
// schedule, never of heap internals: events at equal instants order by
// tier (AtTier; the cluster uses capacity < arrival < phase), within a
// tier by an owner-chosen key (RescheduleKeyed; 0 for every other entry
// point), and among equal keys by FIFO insertion order. This is what lets the cluster
// simulator's open drive (Inject) execute the identical event sequence
// as its closed drive even at exact time ties.
//
// Fired or cancelled events can be recycled (ReuseAfter, ReuseAtTier):
// the caller passes the dead event back and the queue re-arms the same
// object, so a hot loop that continually reschedules one logical event
// — the cluster's per-job phase completion — allocates nothing in
// steady state. A still-pending event is cheaper yet to move:
// RescheduleAfter repositions the existing heap entry with a single
// sift, equivalent to (but half the heap traffic of) cancel-and-reuse;
// RescheduleKeyed leaves an event whose instant and key do not move
// where it is, without a sift.
package eventq
