package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"dpsim/internal/appmodel"
	"dpsim/internal/cluster"
	"dpsim/internal/rng"
	"dpsim/internal/trace"
)

// arrivalClock yields the absolute instants of an arrival process, one per
// call, consuming randomness only from the passed stream. Exhausted clocks
// return +Inf.
type arrivalClock interface {
	next(r *rng.Source) float64
}

// closedClock releases jobs at explicit instants, or all at t=0 when no
// instants are given (the classic closed batch; the stream's job count
// bounds it).
type closedClock struct {
	times []float64
	i     int
	batch bool
}

func (c *closedClock) next(r *rng.Source) float64 {
	if c.batch {
		return 0
	}
	if c.i >= len(c.times) {
		return math.Inf(1)
	}
	t := c.times[c.i]
	c.i++
	return t
}

// poissonClock is a homogeneous Poisson process: i.i.d. exponential
// inter-arrival times.
type poissonClock struct {
	t, mean float64
}

func (c *poissonClock) next(r *rng.Source) float64 {
	c.t += r.Exp(c.mean)
	return c.t
}

// mmppClock is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at the current regime's rate, and the regime flips after an
// exponential dwell. Both the exponential inter-arrival and dwell laws are
// memoryless, so resampling the time-to-switch at every step is exact.
type mmppClock struct {
	t          float64
	burst      bool
	burstMean  float64 // inter-arrival mean while bursting
	calmMean   float64
	burstDwell float64 // mean regime sojourn times
	calmDwell  float64
}

func (c *mmppClock) next(r *rng.Source) float64 {
	for {
		mean, dwell := c.calmMean, c.calmDwell
		if c.burst {
			mean, dwell = c.burstMean, c.burstDwell
		}
		arrival := r.Exp(mean)
		toSwitch := r.Exp(dwell)
		if arrival <= toSwitch {
			c.t += arrival
			return c.t
		}
		c.t += toSwitch
		c.burst = !c.burst
	}
}

// diurnalClock is a nonhomogeneous Poisson process with the sinusoidal
// rate curve rate(t) = base·(1 + amp·sin(2πt/period)), sampled by Lewis &
// Shedler thinning against the peak rate.
type diurnalClock struct {
	t      float64
	base   float64 // arrivals per second at the mean
	amp    float64
	period float64
}

func (c *diurnalClock) next(r *rng.Source) float64 {
	peak := c.base * (1 + c.amp)
	for {
		c.t += r.Exp(1 / peak)
		rate := c.base * (1 + float64(c.amp*math.Sin(2*math.Pi*c.t/c.period)))
		if r.Float64()*peak <= rate {
			return c.t
		}
	}
}

// JobStream yields the jobs of one simulation run in arrival order. It is
// either generated (arrival clock + job-mix sampler) or replayed from a
// trace; both are fully determined by the seed passed to Stream.
type JobStream struct {
	spec    *Spec
	nodes   int
	count   int     // remaining jobs; <0 means unbounded
	horizon float64 // 0 = none

	// generated mode
	clock      arrivalClock
	arrivalRng *rng.Source
	bodyRng    *rng.Source

	// replay mode
	replay []trace.JobRecord
	scale  float64 // time compression: arrival · 1/load
	i      int

	// model, when non-nil, overrides every streamed job's phase
	// performance models (the sweep grid's appmodel axis).
	model appmodel.AppModel

	nextID int
}

// SetAppModel installs a performance-model override: every job the
// stream yields — generated and replayed alike — has each phase's
// performance response replaced by m, keeping the work profile. A nil m
// restores the mix's native models. Overriding consumes no randomness,
// so the job stream is otherwise bit-identical.
func (st *JobStream) SetAppModel(m appmodel.AppModel) { st.model = m }

// applyModel overrides one job's performance response with m (nil keeps
// the job's native models): cost-free comm-factor models are lowered
// onto Phase.Comm — the simulator's inlined fast path, the curves are
// bit-identical by construction — anything else rides along as
// Job.Model.
func applyModel(j *cluster.Job, m appmodel.AppModel) {
	if m == nil {
		return
	}
	if cf, ok := m.(appmodel.CommFactor); ok && cf.Costs == (appmodel.Costs{}) {
		for i := range j.Phases {
			j.Phases[i].Comm = cf.C
		}
		return
	}
	j.Model = m
}

// Stream builds the deterministic job stream of one grid cell: the
// arrival process at index arrivalIdx, scaled to the given load, sized
// for a cluster of nodes, seeded with seed. Two streams built with equal
// arguments yield bit-identical jobs.
func (s *Spec) Stream(arrivalIdx, nodes int, load float64, seed uint64) (*JobStream, error) {
	if arrivalIdx < 0 || arrivalIdx >= len(s.Arrivals) {
		return nil, fmt.Errorf("scenario: arrival index %d out of range", arrivalIdx)
	}
	if load <= 0 {
		return nil, fmt.Errorf("scenario: load must be positive, got %g", load)
	}
	a := s.Arrivals[arrivalIdx]
	base := rng.New(seed)
	st := &JobStream{
		spec:       s,
		nodes:      nodes,
		count:      -1,
		horizon:    s.HorizonS,
		arrivalRng: base.Fork(),
		bodyRng:    base.Fork(),
	}
	if s.Jobs > 0 {
		st.count = s.Jobs
	}
	switch a.Process {
	case "closed":
		if len(a.Times) > 0 {
			st.clock = &closedClock{times: a.Times}
			if st.count < 0 || st.count > len(a.Times) {
				st.count = len(a.Times)
			}
		} else {
			st.clock = &closedClock{batch: true}
		}
	case "poisson":
		st.clock = &poissonClock{mean: a.MeanInterarrivalS / load}
	case "bursty":
		st.clock = &mmppClock{
			burstMean:  a.BurstInterarrivalS / load,
			calmMean:   a.CalmInterarrivalS / load,
			burstDwell: a.BurstDwellS,
			calmDwell:  a.CalmDwellS,
		}
	case "diurnal":
		st.clock = &diurnalClock{base: load / a.MeanInterarrivalS, amp: a.Amplitude, period: a.PeriodS}
	case "trace":
		path := a.Path
		if !filepath.IsAbs(path) && s.dir != "" {
			path = filepath.Join(s.dir, path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		defer f.Close()
		records, err := trace.ReadJobs(f)
		if err != nil {
			return nil, err
		}
		st.replay = records
		st.scale = 1 / load
		if st.count < 0 || st.count > len(records) {
			st.count = len(records)
		}
	default:
		return nil, fmt.Errorf("scenario: unknown process %q", a.Process)
	}
	return st, nil
}

// Next returns the stream's next job, or false when the stream is done
// (count exhausted, horizon passed, or trace/times list drained).
func (st *JobStream) Next() (*cluster.Job, bool) {
	if st.count == 0 {
		return nil, false
	}
	var job *cluster.Job
	if st.replay != nil {
		if st.i >= len(st.replay) {
			return nil, false
		}
		rec := st.replay[st.i]
		st.i++
		job = recordToJob(rec, st.scale, st.nodes)
	} else {
		at := st.clock.next(st.arrivalRng)
		if math.IsInf(at, 1) {
			return nil, false
		}
		// Per-job fork: the body sampler may consume a variable number of
		// draws without perturbing any other job's randomness.
		phases, maxNodes, weight := st.spec.sampleBody(st.bodyRng.Fork(), st.nodes)
		job = &cluster.Job{Arrival: at, Phases: phases, MaxNodes: maxNodes, Weight: weight}
	}
	if st.horizon > 0 && job.Arrival > st.horizon {
		st.count = 0
		return nil, false
	}
	applyModel(job, st.model)
	job.ID = st.nextID
	st.nextID++
	if st.count > 0 {
		st.count--
	}
	return job, true
}

func recordToJob(rec trace.JobRecord, scale float64, nodes int) *cluster.Job {
	phases := make([]cluster.Phase, len(rec.Phases))
	for i, ph := range rec.Phases {
		phases[i] = cluster.Phase{Work: ph.Work, Comm: ph.Comm}
	}
	maxNodes := rec.MaxNodes
	if maxNodes <= 0 || maxNodes > nodes {
		maxNodes = nodes
	}
	return &cluster.Job{Arrival: rec.Arrival * scale, Phases: phases, MaxNodes: maxNodes}
}

// Jobs drains the stream into a slice (closed-workload use).
func (st *JobStream) Jobs() []*cluster.Job {
	var out []*cluster.Job
	for {
		j, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, j)
	}
}
