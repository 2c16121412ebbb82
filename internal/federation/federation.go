package federation

import (
	"cmp"
	"fmt"
	"slices"

	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
)

// Member is one cluster in a federation: an independently configured
// cluster.Sim (its own scheduler, pool size, availability timeline,
// reconfiguration model) plus a display name for telemetry and traces.
type Member struct {
	// Name labels the member in views, telemetry and traces. The
	// scenario layer defaults it to "c<index>".
	Name string
	// Sim is the member's simulator. The federation drives it solely
	// through the step primitives and must be its only driver.
	Sim *cluster.Sim
}

// Sim orchestrates N member clusters on one shared virtual clock. It
// always advances the member holding the globally earliest pending
// event (ties broken by member index), so no member's local clock ever
// passes the federation clock, and an outer arrival loop that injects
// at the event-vs-arrival frontier — exactly the scenario.RunCell loop —
// composes with any number of members without reordering events.
//
// Arrivals flow through Offer (admission + routing decision) and
// InjectInto (delivery). The zero value is not usable; construct with
// NewSim.
//
// Once the federation has started (its first PeekNextEventTime or
// ProcessNextEvent) the members are driven only through it: it caches
// each member's next-event instant in a winner tree and refreshes the
// one leaf-to-root path of the member a step or an injection touched, so
// stepping or injecting into a member's Sim directly would leave the
// cache stale.
type Sim struct {
	members []Member
	admit   Admission
	route   Router

	// tree is the winner tree over the members, built when the
	// federation starts. Leaf tree[width+i] caches member i's next-event
	// instant (width is a power of two; the padding leaves never have an
	// event), and tree[k] for k in [1, width) holds the earliest
	// (instant, member index) key of its two children, so tree[1] names
	// the member to step. A step or an injection replays one leaf-to-root
	// path instead of scanning every member.
	tree []node

	// views is the scratch slice rebuilt for each routing decision so
	// the steady-state Offer path allocates nothing.
	views  []ClusterView
	routed []int

	offered  int
	admitted int
	rejected int
	now      eventq.Time
}

// NewSim builds a federation over the given members. Members must be
// non-empty with non-nil sims, and both policies must be non-nil; the
// caller keeps ownership of nothing — the federation becomes the sole
// driver of every member sim.
func NewSim(members []Member, admit Admission, route Router) (*Sim, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("federation: NewSim: no members")
	}
	for i, m := range members {
		if m.Sim == nil {
			return nil, fmt.Errorf("federation: NewSim: member %d (%s) has nil Sim", i, m.Name)
		}
	}
	if admit == nil {
		return nil, fmt.Errorf("federation: NewSim: nil admission policy")
	}
	if route == nil {
		return nil, fmt.Errorf("federation: NewSim: nil routing policy")
	}
	f := &Sim{
		members: members,
		admit:   admit,
		route:   route,
		views:   make([]ClusterView, len(members)),
		routed:  make([]int, len(members)),
	}
	return f, nil
}

// PeekNextEventTime reports the earliest pending event time across all
// members, or ok=false when every member queue is empty.
func (f *Sim) PeekNextEventTime() (eventq.Time, bool) {
	best, bestT := f.earliest()
	return bestT, best >= 0
}

// node is one entry of the winner tree: a member and its next-event
// instant, valid where pending.
type node struct {
	at      eventq.Time
	pending bool
	member  int32
}

// earliest reads the member holding the globally earliest pending event
// (lowest member index on ties) off the winner tree's root, -1 when no
// member has one.
func (f *Sim) earliest() (int, eventq.Time) {
	if f.tree == nil {
		f.start()
	}
	if root := f.tree[1]; root.pending {
		return int(root.member), root.at
	}
	return -1, 0
}

// start reads every member's next-event instant and builds the winner
// tree bottom-up.
func (f *Sim) start() {
	width := 1
	for width < len(f.members) {
		width *= 2
	}
	f.tree = make([]node, 2*width)
	for i := range width {
		leaf := &f.tree[width+i]
		leaf.member = int32(i)
		if i < len(f.members) {
			leaf.at, leaf.pending = f.members[i].Sim.PeekNextEventTime()
		}
	}
	for k := width - 1; k >= 1; k-- {
		f.play(k)
	}
}

// play replays the match at internal node k. The left child holds the
// lower member indices, so it wins ties and wins whenever the right
// child has nothing pending.
func (f *Sim) play(k int) {
	l, r := f.tree[2*k], f.tree[2*k+1]
	if r.pending && (!l.pending || r.at < l.at) {
		l = r
	}
	f.tree[k] = l
}

// refresh re-reads member i's next-event instant after the federation
// stepped it or injected into it, and replays the matches on its path
// to the root.
func (f *Sim) refresh(i int) {
	k := len(f.tree)/2 + i
	leaf := &f.tree[k]
	leaf.at, leaf.pending = f.members[i].Sim.PeekNextEventTime()
	for k /= 2; k >= 1; k /= 2 {
		f.play(k)
	}
}

// ProcessNextEvent advances the member holding the globally earliest
// pending event (lowest member index on ties) by one event. The shared
// clock advances to that event's time when it is ahead — an injection
// into a previously idle member may legally resume that member's
// suspended capacity timeline behind the frontier, and those replayed
// events never move the clock backwards. It returns false when no
// member has pending events.
func (f *Sim) ProcessNextEvent() bool {
	_, _, ok := f.step()
	return ok
}

// step is ProcessNextEvent exposing which member advanced and to what
// time, for the invariant harness.
func (f *Sim) step() (int, eventq.Time, bool) {
	best, bestT := f.earliest()
	if best < 0 {
		return -1, 0, false
	}
	f.members[best].Sim.ProcessNextEvent()
	f.refresh(best)
	if bestT > f.now {
		f.now = bestT
	}
	return best, bestT, true
}

// Now reports the shared federation clock: the time of the latest event
// processed (or arrival injected) anywhere in the federation.
func (f *Sim) Now() eventq.Time { return f.now }

// Offer runs the admission and routing policies for an arriving job
// without injecting it. It returns the chosen member index and
// admitted=true, or admitted=false (idx -1) for a rejection. An error
// means the routing policy faulted (returned an out-of-range index);
// the job is still counted as admitted but routed nowhere, so callers
// must treat an error as fatal to the run.
func (f *Sim) Offer(j *cluster.Job) (idx int, admitted bool, err error) {
	if j == nil {
		return -1, false, fmt.Errorf("federation: Offer: nil job")
	}
	f.offered++
	if !f.admit.Admit(j.Arrival, j) {
		f.rejected++
		return -1, false, nil
	}
	f.admitted++
	for i := range f.members {
		li := f.members[i].Sim.LoadInfo()
		f.views[i] = ClusterView{
			Index:     i,
			Name:      f.members[i].Name,
			Nodes:     li.Nodes,
			Capacity:  li.Capacity,
			Waiting:   li.Waiting,
			Running:   li.Running,
			Allocated: li.Allocated,
			Routed:    f.routed[i],
		}
	}
	idx = f.route.Route(j.Arrival, j, f.views)
	if idx < 0 || idx >= len(f.members) {
		return -1, false, fmt.Errorf("federation: router %s returned member %d (valid: 0..%d)",
			f.route.Name(), idx, len(f.members)-1)
	}
	return idx, true, nil
}

// InjectInto delivers an admitted job to the chosen member, advancing
// the shared clock to the job's arrival instant. Injecting behind the
// shared clock is an error: the federation has already processed an
// event later than this arrival, so admitting it would let one member's
// history depend on another member's future.
func (f *Sim) InjectInto(idx int, j *cluster.Job) error {
	if idx < 0 || idx >= len(f.members) {
		return fmt.Errorf("federation: InjectInto: member %d out of range (valid: 0..%d)", idx, len(f.members)-1)
	}
	at := eventq.Time(eventq.DurationOf(j.Arrival))
	if at < f.now {
		return fmt.Errorf("federation: InjectInto: arrival at %v regresses the shared clock (now %v)", at, f.now)
	}
	if err := f.members[idx].Sim.Inject(j); err != nil {
		return err
	}
	if f.tree != nil {
		f.refresh(idx)
	}
	f.routed[idx]++
	f.now = at
	return nil
}

// Offered, Admitted and Rejected report the admission counters:
// Offered == Admitted + Rejected always holds.
func (f *Sim) Offered() int  { return f.offered }
func (f *Sim) Admitted() int { return f.admitted }
func (f *Sim) Rejected() int { return f.rejected }

// Routed returns a copy of the per-member delivered-job counts; the
// counts sum to Admitted once every admitted job has been injected.
func (f *Sim) Routed() []int {
	out := make([]int, len(f.routed))
	copy(out, f.routed)
	return out
}

// Results collects each member's cluster.Result in member order.
// Call only after the event loop has drained.
func (f *Sim) Results() []cluster.Result {
	out := make([]cluster.Result, len(f.members))
	for i := range f.members {
		out[i] = f.members[i].Sim.Result()
	}
	return out
}

// Merged folds the member results into one federation-level
// cluster.Result. For a single member it returns that member's Result
// verbatim — the golden guarantee that a 1-cluster federation is
// byte-identical to the plain cluster path. For multiple members,
// per-job outcomes concatenate (re-sorted by job ID), Makespan is the
// max, counters sum, and the utilization family divides the members'
// summed useful work (cluster.Sim.Usage) by fleet-wide capacity over
// [0, Makespan]:
//
//   - Utilization by Σ nodes_i × Makespan, the full pools;
//   - AvailWeightedUtilization by the summed available-capacity
//     integrals, each member's timeline followed to the fleet's
//     Makespan, so on fixed pools it equals Utilization.
func (f *Sim) Merged() cluster.Result {
	if len(f.members) == 1 {
		return f.members[0].Sim.Result()
	}
	var out cluster.Result
	var end eventq.Time
	for i := range f.members {
		end = max(end, f.members[i].Sim.Makespan())
	}
	out.Makespan = end.Seconds()
	var work, pools, capIntegral float64
	results := f.Results()
	n := 0
	for _, r := range results {
		n += len(r.PerJob)
	}
	out.PerJob = make([]cluster.JobOutcome, 0, n)
	for i, r := range results {
		out.PerJob = append(out.PerJob, r.PerJob...)
		out.Unfinished += r.Unfinished
		out.Reallocations += r.Reallocations
		out.CapacityEvents += r.CapacityEvents
		out.LostWorkS += r.LostWorkS
		out.RedistributionS += r.RedistributionS

		w, c := f.members[i].Sim.Usage(end)
		work += w
		pools += float64(f.members[i].Sim.LoadInfo().Nodes) * out.Makespan
		capIntegral += c
	}
	// IDs are unique across a fleet, so an unstable sort is deterministic.
	slices.SortFunc(out.PerJob, func(a, b cluster.JobOutcome) int { return cmp.Compare(a.ID, b.ID) })
	if pools > 0 {
		out.Utilization = work / pools
	}
	if capIntegral > 0 {
		out.AvailWeightedUtilization = work / capIntegral
	}
	return out
}
