package obs

// SpanKind classifies a per-job span.
type SpanKind uint8

const (
	// SpanWait covers arrival → first node allocation (queueing delay).
	SpanWait SpanKind = iota
	// SpanRun covers first node allocation → completion.
	SpanRun
	// SpanPhase covers one phase: the previous phase boundary (or first
	// start) → this phase's completion.
	SpanPhase
	// SpanReconfig covers a data-redistribution pause charged by the
	// reconfiguration-cost model.
	SpanReconfig
)

// String names the span kind for exports.
func (k SpanKind) String() string {
	switch k {
	case SpanWait:
		return "wait"
	case SpanRun:
		return "run"
	case SpanPhase:
		return "phase"
	case SpanReconfig:
		return "reconfig"
	}
	return "unknown"
}

// Span is one completed interval on a job's timeline, in virtual
// seconds. Phase is the 0-based phase index for SpanPhase spans, -1
// otherwise.
type Span struct {
	JobID int
	Kind  SpanKind
	Phase int
	Start float64
	End   float64
}

// CapacityStep is one capacity transition: a change taking effect, or —
// with Notice set — a reclaim-notice window opening toward Capacity.
type CapacityStep struct {
	T        float64
	Capacity int
	Notice   bool
}

// Preemption is one whole-job eviction by a capacity drop.
type Preemption struct {
	T     float64
	JobID int
}

// Charge is one reconfiguration-cost charge (see ChargeKind for units).
type Charge struct {
	T      float64
	JobID  int
	Kind   ChargeKind
	Amount float64
}

// Config bounds a Recorder's memory. Every stream is a ring keeping its
// newest entries; zero fields take the defaults below.
type Config struct {
	// Label names the run in exports (typically the scheduler spec).
	Label string
	// MaxSamples bounds the retained time-series samples (default 65536).
	MaxSamples int
	// MaxSpans bounds the retained per-job spans (default 65536).
	MaxSpans int
	// MaxEvents bounds each of the capacity-step, preemption and charge
	// streams (default 16384).
	MaxEvents int
}

// jobTrack is the recorder's open bookkeeping for one in-flight job.
type jobTrack struct {
	arrival    float64
	firstStart float64 // -1 until the job first holds nodes
	boundary   float64 // start instant of the current phase span
}

// Recorder is the built-in Probe implementation: it turns the hook
// stream into per-job wait/run/phase/reconfig spans, fixed-interval
// time-series samples, capacity/preemption/charge event logs, and a
// scheduler-invocation latency histogram. All streams live in
// preallocated ring buffers (Config caps them), so recording an
// arbitrarily long run costs bounded memory and bounded amortized
// allocation per event.
//
// A Recorder observes exactly one simulation run; it is not safe for
// concurrent use (the simulator is single-threaded).
type Recorder struct {
	label string

	jobs     map[int]*jobTrack
	arrived  int
	finished int

	spans    ring[Span]
	samples  ring[Sample]
	capSteps ring[CapacityStep]
	preempts ring[Preemption]
	charges  ring[Charge]

	invocations int
	latency     LatencyHist

	lostWorkS float64
	redistS   float64
	// end is the latest instant any hook observed — the horizon of the
	// recorded run.
	end float64
}

// NewRecorder returns an empty recorder with the given bounds.
func NewRecorder(cfg Config) *Recorder {
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 65536
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 65536
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 16384
	}
	return &Recorder{
		label:    cfg.Label,
		jobs:     make(map[int]*jobTrack),
		spans:    newRing[Span](cfg.MaxSpans),
		samples:  newRing[Sample](cfg.MaxSamples),
		capSteps: newRing[CapacityStep](cfg.MaxEvents),
		preempts: newRing[Preemption](cfg.MaxEvents),
		charges:  newRing[Charge](cfg.MaxEvents),
	}
}

func (r *Recorder) touch(t float64) {
	if t > r.end {
		r.end = t
	}
}

// JobArrive implements Probe.
func (r *Recorder) JobArrive(t float64, jobID int) {
	r.touch(t)
	r.arrived++
	r.jobs[jobID] = &jobTrack{arrival: t, firstStart: -1}
}

// JobFirstStart implements Probe.
func (r *Recorder) JobFirstStart(t float64, jobID int) {
	r.touch(t)
	j := r.jobs[jobID]
	if j == nil || j.firstStart >= 0 {
		return
	}
	j.firstStart = t
	j.boundary = t
	r.spans.push(Span{JobID: jobID, Kind: SpanWait, Phase: -1, Start: j.arrival, End: t})
}

// PhaseDone implements Probe.
func (r *Recorder) PhaseDone(t float64, jobID, phase, phases int) {
	r.touch(t)
	j := r.jobs[jobID]
	if j == nil {
		return
	}
	start := j.boundary
	if j.firstStart < 0 {
		start = j.arrival
	}
	r.spans.push(Span{JobID: jobID, Kind: SpanPhase, Phase: phase, Start: start, End: t})
	j.boundary = t
}

// JobFinish implements Probe.
func (r *Recorder) JobFinish(t float64, jobID int) {
	r.touch(t)
	r.finished++
	j := r.jobs[jobID]
	if j == nil {
		return
	}
	start := j.firstStart
	if start < 0 {
		start = j.arrival
	}
	r.spans.push(Span{JobID: jobID, Kind: SpanRun, Phase: -1, Start: start, End: t})
	delete(r.jobs, jobID)
}

// SchedulerInvoke implements Probe.
func (r *Recorder) SchedulerInvoke(t float64, inv SchedulerInvocation) {
	r.touch(t)
	r.invocations++
	r.latency.Add(inv.WallNS)
}

// CapacityNotice implements Probe.
func (r *Recorder) CapacityNotice(t float64, target int) {
	r.touch(t)
	r.capSteps.push(CapacityStep{T: t, Capacity: target, Notice: true})
}

// CapacityChange implements Probe.
func (r *Recorder) CapacityChange(t float64, capacity int) {
	r.touch(t)
	r.capSteps.push(CapacityStep{T: t, Capacity: capacity})
}

// Preempt implements Probe.
func (r *Recorder) Preempt(t float64, jobID int) {
	r.touch(t)
	r.preempts.push(Preemption{T: t, JobID: jobID})
}

// ReconfigCharge implements Probe.
func (r *Recorder) ReconfigCharge(t float64, jobID int, kind ChargeKind, amount float64) {
	r.touch(t)
	r.charges.push(Charge{T: t, JobID: jobID, Kind: kind, Amount: amount})
	switch kind {
	case ChargeRedistribution:
		r.redistS += amount
		r.spans.push(Span{JobID: jobID, Kind: SpanReconfig, Phase: -1, Start: t, End: t + amount})
	case ChargeLostWork:
		r.lostWorkS += amount
	}
}

// TimeSample implements Probe.
func (r *Recorder) TimeSample(s Sample) {
	r.touch(s.T)
	r.samples.push(s)
}

// Samples returns the retained time-series samples oldest-first.
func (r *Recorder) Samples() []Sample { return r.samples.items() }

// Spans returns the retained spans in recording order (completion
// order, since every span is pushed when it closes).
func (r *Recorder) Spans() []Span { return r.spans.items() }

// CapacitySteps returns the retained capacity transitions oldest-first.
func (r *Recorder) CapacitySteps() []CapacityStep { return r.capSteps.items() }

// Preemptions returns the retained whole-job evictions oldest-first.
func (r *Recorder) Preemptions() []Preemption { return r.preempts.items() }

// Charges returns the retained reconfiguration charges oldest-first.
func (r *Recorder) Charges() []Charge { return r.charges.items() }

// Latency returns the scheduler-invocation latency histogram.
func (r *Recorder) Latency() *LatencyHist { return &r.latency }

// End returns the latest instant any hook observed.
func (r *Recorder) End() float64 { return r.end }
