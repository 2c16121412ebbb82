package federation

import "dpsim/internal/cluster"

// ClusterView is the read-only per-member snapshot handed to a Router:
// the member's instantaneous load gauges (cluster.Sim.LoadInfo) plus
// federation-level bookkeeping. The orchestrator rebuilds views in a
// reused scratch slice before every routing decision, so routers must
// not retain the slice across calls.
type ClusterView struct {
	// Index is the member's position in the federation (the value Route
	// returns to pick it).
	Index int
	// Name is the member's configured name ("c0", "c1", ... by default).
	Name string
	// Nodes is the member's configured pool size; Capacity is the usable
	// capacity currently in effect (≤ Nodes under volatile availability).
	Nodes    int
	Capacity int
	// Waiting counts active jobs holding no nodes; Running counts jobs
	// holding at least one; Allocated is the total nodes granted.
	Waiting   int
	Running   int
	Allocated int
	// Routed is the number of jobs the federation has sent to this
	// member so far.
	Routed int
}

// Router picks the member cluster that runs an admitted job. Route is
// called once per admitted job with one view per member (views[i].Index
// == i) and must return an index in [0, len(views)); anything else is a
// routing fault the orchestrator reports as an error. Like Admission,
// routers must be deterministic functions of the decision sequence.
type Router interface {
	// Name reports the canonical registry name.
	Name() string
	// Route returns the index of the chosen member. now is the job's
	// arrival time in seconds.
	Route(now float64, j *cluster.Job, views []ClusterView) int
}

func init() {
	RegisterRouter("round-robin", newRoundRobin)
	RegisterRouter("least-loaded", newLeastLoaded)
	RegisterRouter("weighted", newWeighted)
}

// roundRobin cycles through members in index order, ignoring load.
// Under a 1-cluster federation it always returns 0, which is what makes
// it the golden-pin default.
type roundRobin struct {
	next int
}

func newRoundRobin(p Params) (Router, error) {
	if err := p.Check("federation", "round-robin"); err != nil {
		return nil, err
	}
	return &roundRobin{}, nil
}

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Route(now float64, j *cluster.Job, views []ClusterView) int {
	idx := r.next % len(views)
	r.next = idx + 1
	return idx
}

// leastLoaded sends the job to the member with the fewest active jobs
// (waiting + running), breaking ties toward the lowest index so the
// choice is deterministic.
type leastLoaded struct{}

func newLeastLoaded(p Params) (Router, error) {
	if err := p.Check("federation", "least-loaded"); err != nil {
		return nil, err
	}
	return leastLoaded{}, nil
}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Route(now float64, j *cluster.Job, views []ClusterView) int {
	best, bestLoad := 0, -1
	for _, v := range views {
		load := v.Waiting + v.Running
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = v.Index, load
		}
	}
	return best
}

// weighted scores each member as free*(Capacity-Allocated) minus
// queue*(Waiting+Running) and picks the highest score — a tunable blend
// of "has free nodes" and "has a short queue". Ties break toward the
// lowest index.
//
// Parameters: free (weight on unallocated capacity, default 1), queue
// (weight on active-job count, default 1).
type weighted struct {
	free  float64
	queue float64
}

func newWeighted(p Params) (Router, error) {
	if err := p.Check("federation", "weighted", "free", "queue"); err != nil {
		return nil, err
	}
	return &weighted{free: p.Float("free", 1), queue: p.Float("queue", 1)}, nil
}

func (w *weighted) Name() string { return "weighted" }

func (w *weighted) Route(now float64, j *cluster.Job, views []ClusterView) int {
	best, bestScore := 0, 0.0
	for i, v := range views {
		score := w.free*float64(v.Capacity-v.Allocated) - w.queue*float64(v.Waiting+v.Running)
		if i == 0 || score > bestScore {
			best, bestScore = v.Index, score
		}
	}
	return best
}
