// Package cpumodel implements the simulator's per-node processing model
// (paper §4).
//
// Each virtual node has one processor of normalized power. Two effects
// determine how fast an atomic step executes:
//
//  1. Communication overhead. Handling transfers costs processing power;
//     receiving costs more than sending ("receiving data objects induces
//     more interrupts and more memory copies than sending"). With nIn
//     active incoming and nOut outgoing transfers, the power left for
//     computation is max(floor, 1 - nIn·recv - nOut·send).
//  2. Processor sharing. "The processing power not used for
//     communications is shared evenly among all running operations":
//     k concurrently running atomic steps each progress at available/k.
//
// Work is expressed as a Duration: the time the step would take alone on
// an idle node of power 1.0. The model is fluid: rates change only when a
// job starts/ends or transfer counts change, and completions are
// rescheduled accordingly.
package cpumodel

import (
	"fmt"
	"slices"

	"dpsim/internal/eventq"
)

// Params configures one node's CPU model.
type Params struct {
	// Power scales the node speed; 1.0 is the reference node. Work of
	// duration d completes in d/Power on an otherwise idle node.
	Power float64
	// RecvOverhead is the fraction of the node's power consumed by each
	// active incoming transfer.
	RecvOverhead float64
	// SendOverhead is the fraction consumed by each active outgoing
	// transfer.
	SendOverhead float64
	// MinAvailable floors the power left for computation so that extreme
	// fan-in cannot stall progress entirely.
	MinAvailable float64
	// Sharing enables even processor sharing between concurrent steps.
	// When false each step runs at the full available power (ablation).
	Sharing bool
	// CommOverhead enables effect 1. When false transfers are free
	// (ablation; the assumption of the simulators the paper improves on).
	CommOverhead bool
}

// Defaults returns the reference parameter set used by the simulator:
// values in the range the paper implies (receive costlier than send),
// characterized once per platform, independent of the application.
func Defaults() Params {
	return Params{
		Power:        1.0,
		RecvOverhead: 0.07,
		SendOverhead: 0.03,
		MinAvailable: 0.05,
		Sharing:      true,
		CommOverhead: true,
	}
}

// job is one atomic step executing on a CPU.
type job struct {
	total     float64 // submitted work in seconds at power 1.0
	remaining float64 // seconds of work at power 1.0
	rate      float64 // work-seconds per second
	last      eventq.Time
	// finish is the job's one completion event, moved by every reflow,
	// and complete its one callback, bound when the job is first
	// allocated: a finished job returns to its CPU's free list with both,
	// so a Submit allocates nothing in steady state.
	finish   *eventq.Event
	complete func()
	done     func()
}

// CPU models one node's processor. Not safe for concurrent use; only the
// single-threaded event engine calls it.
type CPU struct {
	q    *eventq.Queue
	p    Params
	node int
	jobs []*job // running jobs in submission order
	free []*job // finished jobs, for reuse
	nIn  int
	nOut int

	// accounting
	workDone     float64 // completed work-seconds
	busySince    eventq.Time
	busyIntegral float64 // seconds with >= 1 active job
}

// New returns a CPU for the given node identifier.
func New(q *eventq.Queue, node int, p Params) *CPU {
	if p.Power <= 0 {
		panic("cpumodel: power must be positive")
	}
	if p.MinAvailable <= 0 {
		p.MinAvailable = 0.01
	}
	return &CPU{q: q, p: p, node: node}
}

// Node returns the node identifier this CPU belongs to.
func (c *CPU) Node() int { return c.node }

// Params returns the model parameters.
func (c *CPU) Params() Params { return c.p }

// Active returns the number of running atomic steps.
func (c *CPU) Active() int { return len(c.jobs) }

// WorkDone returns total completed work in seconds at power 1.0.
func (c *CPU) WorkDone() float64 { return c.workDone }

// BusyTime returns the total virtual time during which at least one atomic
// step was running.
func (c *CPU) BusyTime() float64 {
	t := c.busyIntegral
	if len(c.jobs) > 0 {
		t += (c.q.Now() - c.busySince).Seconds()
	}
	return t
}

// Available returns the fraction of node power currently usable for
// computation, after communication overhead.
func (c *CPU) Available() float64 {
	if !c.p.CommOverhead {
		return 1
	}
	avail := 1 - float64(float64(c.nIn)*c.p.RecvOverhead) - float64(float64(c.nOut)*c.p.SendOverhead)
	if avail < c.p.MinAvailable {
		avail = c.p.MinAvailable
	}
	return avail
}

// SetTransfers updates the number of active incoming/outgoing transfers
// (driven by the network model's Listener callback).
func (c *CPU) SetTransfers(in, out int) {
	if in == c.nIn && out == c.nOut {
		return
	}
	c.nIn, c.nOut = in, out
	c.reflow()
}

// Submit starts an atomic step requiring work (time at power 1.0 on an
// idle node) and calls done when it completes. Zero work completes on the
// next event round without occupying the processor.
func (c *CPU) Submit(work eventq.Duration, done func()) {
	var j *job
	if n := len(c.free); n > 0 {
		j, c.free = c.free[n-1], c.free[:n-1]
	} else {
		j = &job{}
		j.complete = func() { c.complete(j) }
	}
	j.done = done
	if work <= 0 {
		j.total = 0
		j.finish = c.q.ReuseAfter(j.finish, 0, j.complete)
		return
	}
	j.total, j.remaining, j.rate, j.last = work.Seconds(), work.Seconds(), 0, c.q.Now()
	if len(c.jobs) == 0 {
		c.busySince = c.q.Now()
	}
	c.jobs = append(c.jobs, j)
	c.reflow()
}

// rateOf computes a job's current execution rate in work-seconds/second.
func (c *CPU) rateOf() float64 {
	avail := c.Available() * c.p.Power
	if !c.p.Sharing || len(c.jobs) <= 1 {
		return avail
	}
	return avail / float64(len(c.jobs))
}

// reflow settles all jobs and moves their completions under the new rate.
// Jobs are visited in ID order, and RescheduleAfter gives each a fresh
// sequence number exactly as Cancel + After would, so completions that
// land on the same instant fire in ID order.
func (c *CPU) reflow() {
	now := c.q.Now()
	rate := c.rateOf()
	for _, j := range c.jobs {
		dt := (now - j.last).Seconds()
		if dt > 0 && j.rate > 0 {
			j.remaining -= float64(j.rate * dt)
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		j.last = now
		j.rate = rate
		j.finish = c.q.RescheduleAfter(j.finish, eventq.DurationOf(j.remaining/rate), j.complete)
	}
}

// complete ends job j. The job goes back to the free list before done
// runs, since done may Submit again.
func (c *CPU) complete(j *job) {
	done := j.done
	j.done = nil
	c.free = append(c.free, j)
	if j.total > 0 {
		// A completed job performed exactly the work it was submitted with.
		c.workDone += j.total
		i := slices.Index(c.jobs, j)
		c.jobs = slices.Delete(c.jobs, i, i+1)
		if len(c.jobs) == 0 {
			c.busyIntegral += (c.q.Now() - c.busySince).Seconds()
		}
		c.reflow()
	}
	if done != nil {
		done()
	}
}

func (c *CPU) String() string {
	return fmt.Sprintf("cpu{node=%d, jobs=%d, in=%d, out=%d, avail=%.2f}",
		c.node, len(c.jobs), c.nIn, c.nOut, c.Available())
}
