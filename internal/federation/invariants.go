package federation

import (
	"fmt"
	"math"

	"dpsim/internal/availability"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// CheckConfig tunes CheckInvariants.
type CheckConfig struct {
	// AdmissionFactory overrides name resolution; nil resolves
	// NewAdmission(name, nil). Every call must return a fresh instance —
	// admission policies are stateful.
	AdmissionFactory func() (Admission, error)
	// RouterFactory overrides name resolution; nil resolves
	// NewRouter(name, nil).
	RouterFactory func() (Router, error)
	// SchedulerFactory builds every member's policy, overriding the
	// scheduler each member draws from the sched registry (the draw still
	// happens, so cases stay the same). Every call must return a fresh
	// instance — policies may be stateful.
	SchedulerFactory func() (sched.Scheduler, error)
	// Seed roots the randomized federations (default 1).
	Seed uint64
	// Rounds is the number of randomized federation cases (default 12);
	// each runs twice to check determinism.
	Rounds int
	// MaxClusters bounds the random member count (default 4).
	MaxClusters int
	// MaxNodes bounds each member's random pool size (default 16).
	MaxNodes int
	// MaxJobs bounds the random arrival-stream length (default 18).
	MaxJobs int
}

// CheckInvariants certifies an admission×routing policy pair against the
// federation's core invariants under randomized member fleets
// (heterogeneous pool sizes, schedulers and availability timelines) and
// randomized open arrival streams:
//
//  0. every member's scheduler honours the sched.Scheduler allocation
//     contract — each grant in [0, MaxNodes], the sum within the usable
//     nodes (cluster.Sim panics on a violation; the harness reports it);
//  1. every offered arrival is admitted or rejected exactly once, and
//     the harness's own counts agree with the orchestrator's counters;
//  2. every admitted job is routed to exactly one member, in range
//     (Σ routed == admitted);
//  3. per-member job conservation: finished + unfinished == routed, for
//     every member;
//  4. the shared clock never regresses — Now() is monotone, every
//     member's own event sequence is non-decreasing, and each step
//     advances the member holding the globally earliest pending event,
//     the lowest-indexed one when several hold it (injections may
//     legally replay a quiet member's suspended capacity timeline behind
//     the frontier; the clock stays put); and
//  5. identical seeds produce bit-identical results, per-member and
//     federation-wide.
//
// Any registered policy — including future ones — is certified by name;
// the test suite runs every AdmissionNames()×RouterNames() pair, and every
// sched.Names() policy through SchedulerFactory on one-member and
// multi-member fleets.
func CheckInvariants(admission, router string, cfg CheckConfig) error {
	pair := admission + "×" + router
	newAdmit := cfg.AdmissionFactory
	if newAdmit == nil {
		newAdmit = func() (Admission, error) { return NewAdmission(admission, nil) }
	}
	newRoute := cfg.RouterFactory
	if newRoute == nil {
		newRoute = func() (Router, error) { return NewRouter(router, nil) }
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 12
	}
	maxClusters := cfg.MaxClusters
	if maxClusters < 1 {
		maxClusters = 4
	}
	maxNodes := cfg.MaxNodes
	if maxNodes < 2 {
		maxNodes = 16
	}
	maxJobs := cfg.MaxJobs
	if maxJobs < 1 {
		maxJobs = 18
	}
	for round := 0; round < rounds; round++ {
		roundSeed := rng.New(seed ^ (uint64(round+1) * 0x9e3779b97f4a7c15)).Uint64()
		var fingerprints [2]string
		for rerun := 0; rerun < 2; rerun++ {
			// Regenerate the identical fleet and stream from the round
			// seed: determinism (invariant 5) covers the whole pipeline,
			// not just the policies.
			fleet, jobs := randomFederation(roundSeed, maxClusters, maxNodes, maxJobs)
			admit, err := newAdmit()
			if err != nil {
				return fmt.Errorf("federation: CheckInvariants(%s): %w", pair, err)
			}
			route, err := newRoute()
			if err != nil {
				return fmt.Errorf("federation: CheckInvariants(%s): %w", pair, err)
			}
			fp, err := runCase(fleet, jobs, admit, route, cfg.SchedulerFactory)
			if err != nil {
				return fmt.Errorf("federation: CheckInvariants(%s): round %d: %w", pair, round, err)
			}
			fingerprints[rerun] = fp
		}
		if fingerprints[0] != fingerprints[1] {
			return fmt.Errorf("federation: CheckInvariants(%s): round %d: identical seeds diverged:\n  %s\n  %s",
				pair, round, fingerprints[0], fingerprints[1])
		}
	}
	return nil
}

// memberCase is one randomized member configuration.
type memberCase struct {
	nodes     int
	scheduler string
	changes   []availability.Change
}

// randomFederation expands a seed into one randomized federation case: a
// heterogeneous fleet (each member with its own pool size, scheduler
// drawn from the full sched registry, and optional volatile-capacity
// timeline) plus an open arrival stream with varied phase profiles.
func randomFederation(seed uint64, maxClusters, maxNodes, maxJobs int) ([]memberCase, []*cluster.Job) {
	src := rng.New(seed)
	schedNames := sched.Names()
	fleet := make([]memberCase, 1+src.Intn(maxClusters))
	for i := range fleet {
		nodes := 2 + src.Intn(maxNodes-1)
		mc := memberCase{nodes: nodes, scheduler: schedNames[src.Intn(len(schedNames))]}
		// Instants on a 10 s grid and a whole-second notice, so members'
		// capacity events tie and the tie rule of invariant 4 is
		// exercised. Like a generated timeline, a member's has one notice,
		// carried by the changes drawn noticed.
		ct, notice := 0.0, math.Ceil(src.Uniform(1, 15))
		for j, n := 0, src.Intn(5); j < n; j++ {
			ct += float64(10 * math.Ceil(src.Exp(40)/10))
			c := availability.Change{At: ct, Capacity: src.Intn(nodes + 1)}
			if src.Float64() < 0.4 {
				c.NoticeS = notice
			}
			mc.changes = append(mc.changes, c)
		}
		fleet[i] = mc
	}
	njobs := 1 + src.Intn(maxJobs)
	jobs := make([]*cluster.Job, njobs)
	t := 0.0
	maxFleetNodes := 0
	for _, mc := range fleet {
		if mc.nodes > maxFleetNodes {
			maxFleetNodes = mc.nodes
		}
	}
	for i := range jobs {
		t += src.Exp(6)
		phases := make([]cluster.Phase, 1+src.Intn(4))
		for k := range phases {
			phases[k] = cluster.Phase{Work: src.Uniform(0.5, 30), Comm: src.Uniform(0, 0.4)}
		}
		jobs[i] = &cluster.Job{
			ID:       i,
			Arrival:  t,
			Phases:   phases,
			MaxNodes: 1 + src.Intn(maxFleetNodes),
			Weight:   src.Uniform(0.5, 3),
		}
	}
	return fleet, jobs
}

// runCase builds the federation, drives the arrival stream through the
// shared-clock event loop, and checks every structural invariant it can
// observe from outside, returning a fingerprint of the full outcome.
// Panics anywhere in the stack are converted to errors so a broken
// policy cannot crash the harness.
func runCase(fleet []memberCase, jobs []*cluster.Job, admit Admission, route Router,
	newPolicy func() (sched.Scheduler, error)) (fp string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("federation: simulation panicked: %v", r)
		}
	}()
	members := make([]Member, len(fleet))
	for i, mc := range fleet {
		var policy sched.Scheduler
		if newPolicy != nil {
			policy, err = newPolicy()
		} else {
			policy, err = sched.New(mc.scheduler, nil)
		}
		if err != nil {
			return "", err
		}
		sim, err := cluster.NewSim(mc.nodes, policy, nil)
		if err != nil {
			return "", err
		}
		if err := sim.SetCapacityChanges(mc.changes); err != nil {
			return "", err
		}
		if err := sim.SetReconfigCost(cluster.ReconfigCost{RedistributionSPerNode: 0.2, LostWorkS: 2}); err != nil {
			return "", err
		}
		members[i] = Member{Name: fmt.Sprintf("c%d", i), Sim: sim}
	}
	fed, err := NewSim(members, admit, route)
	if err != nil {
		return "", err
	}

	// Harness-side shadow counts, kept independently of the
	// orchestrator's counters so the two bookkeepings cross-check.
	var admitted, rejected int
	routed := make([]int, len(members))
	lastPerMember := make([]eventq.Time, len(members))
	next := 0
	for {
		et, evOK := fed.PeekNextEventTime()
		if next < len(jobs) {
			j := jobs[next]
			at := eventq.Time(eventq.DurationOf(j.Arrival))
			if !evOK || at <= et {
				idx, ok, err := fed.Offer(j)
				if err != nil {
					return "", err
				}
				if ok {
					if err := fed.InjectInto(idx, j); err != nil {
						return "", err
					}
					admitted++
					routed[idx]++
				} else {
					rejected++
				}
				next++
				continue
			}
		}
		if !evOK {
			break
		}
		// The first member holding the earliest event, read off the
		// members themselves rather than the federation's cache.
		first, firstT := -1, eventq.Time(0)
		for i := range members {
			if t, ok := members[i].Sim.PeekNextEventTime(); ok && (first < 0 || t < firstT) {
				first, firstT = i, t
			}
		}
		before := fed.Now()
		idx, stepT, ok := fed.step()
		if !ok {
			return "", fmt.Errorf("step reported no events after a successful peek at %v", et)
		}
		// Invariant 4: each step takes the globally earliest pending
		// event, from the lowest-indexed member holding it, member event
		// sequences are non-decreasing, and the shared clock is monotone.
		if stepT != et || stepT != firstT {
			return "", fmt.Errorf("step processed t=%v, but the global minimum was %v (peeked %v)", stepT, firstT, et)
		}
		if idx != first {
			return "", fmt.Errorf("step advanced member %d at t=%v, but member %d holds that instant", idx, stepT, first)
		}
		if stepT < lastPerMember[idx] {
			return "", fmt.Errorf("member %d event time regressed: %v after %v", idx, stepT, lastPerMember[idx])
		}
		lastPerMember[idx] = stepT
		if fed.Now() < before {
			return "", fmt.Errorf("Now() regressed: %v after %v", fed.Now(), before)
		}
	}

	// Invariant 1: exactly-once admission, and both bookkeepings agree.
	if fed.Offered() != len(jobs) {
		return "", fmt.Errorf("offered %d of %d jobs", fed.Offered(), len(jobs))
	}
	if fed.Admitted()+fed.Rejected() != fed.Offered() {
		return "", fmt.Errorf("%d admitted + %d rejected != %d offered",
			fed.Admitted(), fed.Rejected(), fed.Offered())
	}
	if admitted != fed.Admitted() || rejected != fed.Rejected() {
		return "", fmt.Errorf("counter mismatch: harness saw %d/%d admitted/rejected, orchestrator %d/%d",
			admitted, rejected, fed.Admitted(), fed.Rejected())
	}
	// Invariant 2: exactly-once routing.
	fedRouted := fed.Routed()
	total := 0
	for i := range fedRouted {
		if fedRouted[i] != routed[i] {
			return "", fmt.Errorf("member %d: orchestrator routed %d, harness saw %d", i, fedRouted[i], routed[i])
		}
		total += fedRouted[i]
	}
	if total != fed.Admitted() {
		return "", fmt.Errorf("routed %d jobs but admitted %d", total, fed.Admitted())
	}
	// Invariant 3: per-member job conservation.
	results := fed.Results()
	for i, r := range results {
		if len(r.PerJob)+r.Unfinished != routed[i] {
			return "", fmt.Errorf("member %d: %d finished + %d unfinished != %d routed",
				i, len(r.PerJob), r.Unfinished, routed[i])
		}
	}
	return fmt.Sprintf("%+v|%+v|%v|%d", results, fed.Merged(), fedRouted, fed.Rejected()), nil
}
