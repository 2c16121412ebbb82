package federation

import (
	"testing"

	"dpsim/internal/cluster"
)

func job(id int) *cluster.Job {
	return &cluster.Job{ID: id, Phases: []cluster.Phase{{Work: 1}}, MaxNodes: 1}
}

func TestTokenBucket(t *testing.T) {
	a, err := NewAdmission("token-bucket", Params{"rate": 1, "burst": 1})
	if err != nil {
		t.Fatal(err)
	}
	// The bucket starts full: the first offer spends the only token.
	steps := []struct {
		now  float64
		want bool
	}{
		{0, true},    // spends the initial token
		{0, false},   // no refill at the same instant
		{0.5, false}, // refilled to 0.5 — still short
		{1.5, true},  // refilled past 1
		{1.5, false},
	}
	for i, s := range steps {
		if got := a.Admit(s.now, job(i)); got != s.want {
			t.Errorf("step %d (t=%g): Admit = %v, want %v", i, s.now, got, s.want)
		}
	}

	// burst > 1 lets a cold start absorb a batch.
	b, err := NewAdmission("token-bucket", Params{"rate": 0.1, "burst": 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !b.Admit(0, job(i)) {
			t.Fatalf("burst admission %d refused", i)
		}
	}
	if b.Admit(0, job(3)) {
		t.Error("admission past the burst")
	}
}

func TestQuota(t *testing.T) {
	a, err := NewAdmission("quota", Params{"tenants": 2, "jobs": 2, "window_s": 10})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant is ID mod tenants: even IDs are tenant 0, odd tenant 1.
	if !a.Admit(0, job(0)) || !a.Admit(1, job(2)) {
		t.Fatal("tenant 0 first two admissions refused")
	}
	if a.Admit(2, job(4)) {
		t.Error("tenant 0 admitted past its quota")
	}
	if !a.Admit(2, job(1)) {
		t.Error("tenant 1 throttled by tenant 0's quota")
	}
	// A new window resets the count.
	if !a.Admit(11, job(6)) {
		t.Error("tenant 0 still throttled in the next window")
	}
}

func views(loads ...[2]int) []ClusterView {
	out := make([]ClusterView, len(loads))
	for i, l := range loads {
		out[i] = ClusterView{Index: i, LoadInfo: cluster.LoadInfo{Nodes: 8, Capacity: 8, Waiting: l[0], Running: l[1], Allocated: l[1]}}
	}
	return out
}

func TestRoundRobin(t *testing.T) {
	r, err := NewRouter("round-robin", nil)
	if err != nil {
		t.Fatal(err)
	}
	v := views([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0})
	for i, want := range []int{0, 1, 2, 0, 1} {
		if got := r.Route(0, job(i), v); got != want {
			t.Errorf("route %d = %d, want %d", i, got, want)
		}
	}
}

func TestLeastLoaded(t *testing.T) {
	r, err := NewRouter("least-loaded", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Route(0, job(0), views([2]int{2, 3}, [2]int{0, 1}, [2]int{4, 0})); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}
	// Ties break toward the lowest index.
	if got := r.Route(0, job(0), views([2]int{1, 1}, [2]int{0, 2}, [2]int{2, 0})); got != 0 {
		t.Errorf("tie pick %d, want 0", got)
	}
}

func TestWeighted(t *testing.T) {
	r, err := NewRouter("weighted", Params{"free": 1, "queue": 1})
	if err != nil {
		t.Fatal(err)
	}
	v := []ClusterView{
		{Index: 0, LoadInfo: cluster.LoadInfo{Nodes: 8, Capacity: 8, Allocated: 8, Waiting: 0, Running: 4}}, // score -4
		{Index: 1, LoadInfo: cluster.LoadInfo{Nodes: 8, Capacity: 8, Allocated: 2, Waiting: 1, Running: 1}}, // score 4
		{Index: 2, LoadInfo: cluster.LoadInfo{Nodes: 8, Capacity: 4, Allocated: 4, Waiting: 0, Running: 2}}, // score -2
	}
	if got := r.Route(0, job(0), v); got != 1 {
		t.Errorf("weighted picked %d, want 1", got)
	}
	// A queue-dominant weighting flips the choice.
	rq, err := NewRouter("weighted", Params{"free": 0, "queue": 1})
	if err != nil {
		t.Fatal(err)
	}
	v2 := []ClusterView{
		{Index: 0, LoadInfo: cluster.LoadInfo{Capacity: 8, Allocated: 0, Waiting: 3, Running: 3}},
		{Index: 1, LoadInfo: cluster.LoadInfo{Capacity: 2, Allocated: 2, Waiting: 0, Running: 1}},
	}
	if got := rq.Route(0, job(0), v2); got != 1 {
		t.Errorf("queue-weighted picked %d, want 1", got)
	}
}
