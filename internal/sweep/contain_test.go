package sweep

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dpsim/internal/cluster"
	"dpsim/internal/scenario"
	"dpsim/internal/sched"
)

// panicPolicy is equipartition until its third invocation, where it
// panics the way a contract-breaking policy or a corrupted event queue
// does: mid-run, deep inside the cluster simulator.
type panicPolicy struct{ calls int }

func (*panicPolicy) Name() string { return "test-panics" }

func (p *panicPolicy) Allocate(st sched.State, out []int) {
	if p.calls++; p.calls == 3 {
		panic("test-panics: injected fault")
	}
	sched.Equipartition{}.Allocate(st, out)
}

func init() {
	sched.Register("test-panics", func(p sched.Params) (sched.Scheduler, error) {
		if err := p.Check("sched", "test-panics"); err != nil {
			return nil, err
		}
		return &panicPolicy{}, nil
	})
}

// TestPanicInRunIsContained: a panic inside one run becomes that run's
// error, naming the cell, its unit hash, the replication and the seed,
// and the sweep still saves its checkpoint, holding the runs that folded
// before the fault — instead of the process dying with nothing saved.
func TestPanicInRunIsContained(t *testing.T) {
	spec := parseSpec(t, `{
		"name": "contain",
		"nodes": [4],
		"loads": [1.0],
		"schedulers": ["equipartition", "test-panics"],
		"seed": 5,
		"jobs": 6,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 4}
	}`)
	ck := filepath.Join(t.TempDir(), "ck.json")
	_, err := Run(spec, Options{Replications: 2, Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("a panicking policy's sweep reported no error")
	}
	cells := Cells(spec)
	bad := cells[1]
	if bad.Scheduler != "test-panics" {
		t.Fatalf("cell 1 = %v, want the panicking policy", bad)
	}
	hash := CellHashes(spec, cells)[1]
	for _, want := range []string{
		bad.String(), hash.String(), "rep 0", "seed " + strconv.FormatUint(runSeed(hash, 0), 10), "injected fault",
		"goroutine ", // the panic's stack trace
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	saved, err := loadCheckpoint(ck)
	if err != nil || saved == nil {
		t.Fatalf("no checkpoint after the contained panic: %v", err)
	}
	good := CellHashes(spec, cells)[0].String()
	if c, ok := saved.Cells[good]; !ok || c.Folded != 2 {
		t.Errorf("checkpoint holds %+v for the healthy cell, want both replications folded", saved.Cells[good])
	}
	if _, ok := saved.Cells[hash.String()]; ok {
		t.Error("checkpoint holds a fold of the panicking cell")
	}
}

// TestNonFiniteResultIsAnErroredRun: a run whose result carries a NaN or
// an infinity in any field the sweep folds errors exactly as a panic
// does — naming the field, the cell, its unit hash, the replication and
// the seed, with the checkpoint saved — instead of being folded into the
// cell's sums and exported as a plausible-looking row.
func TestNonFiniteResultIsAnErroredRun(t *testing.T) {
	spec := parseSpec(t, `{
		"name": "finite",
		"nodes": [4],
		"loads": [1.0],
		"schedulers": ["equipartition", "rigid-fcfs"],
		"seed": 5,
		"jobs": 6,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 4}
	}`)
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	t.Cleanup(func() { runCell = (*scenario.Spec).RunCell })
	for i, tc := range []struct {
		field  string
		poison func(r *cluster.Result, v float64)
	}{
		{"Makespan", func(r *cluster.Result, v float64) { r.Makespan = v }},
		{"Utilization", func(r *cluster.Result, v float64) { r.Utilization = v }},
		{"AvailWeightedUtilization", func(r *cluster.Result, v float64) { r.AvailWeightedUtilization = v }},
		{"LostWorkS", func(r *cluster.Result, v float64) { r.LostWorkS = v }},
		{"RedistributionS", func(r *cluster.Result, v float64) { r.RedistributionS = v }},
		{"response of job 0", func(r *cluster.Result, v float64) { r.PerJob[0].Response = v }},
		{"wait of job 0", func(r *cluster.Result, v float64) { r.PerJob[0].Wait = v }},
		{"response of job", func(r *cluster.Result, v float64) { r.PerJob[len(r.PerJob)-1].Response = v }},
		{"wait of job", func(r *cluster.Result, v float64) { r.PerJob[len(r.PerJob)-1].Wait = v }},
	} {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		runCell = func(s *scenario.Spec, p scenario.CellParams) (*scenario.CellRun, error) {
			run, err := s.RunCell(p)
			if err == nil && p.SchedulerIdx == 1 {
				tc.poison(&run.Result, bad)
			}
			return run, err
		}
		ck := filepath.Join(t.TempDir(), "ck.json")
		_, err := Run(spec, Options{Replications: 2, Workers: 1, Checkpoint: ck})
		if err == nil {
			t.Errorf("%s = %g: the sweep reported no error", tc.field, bad)
			continue
		}
		for _, want := range []string{
			"non-finite " + tc.field, cells[1].String(), hashes[1].String(), "rep 0",
			"seed " + strconv.FormatUint(runSeed(hashes[1], 0), 10),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.field, err, want)
			}
		}
		saved, err := loadCheckpoint(ck)
		if err != nil || saved == nil {
			t.Fatalf("%s: no checkpoint after the errored run: %v", tc.field, err)
		}
		if c := saved.Cells[hashes[0].String()]; c.Folded != 2 {
			t.Errorf("%s: checkpoint holds %+v for the healthy cell, want both replications folded", tc.field, c)
		}
		if _, ok := saved.Cells[hashes[1].String()]; ok {
			t.Errorf("%s: checkpoint holds a fold of the poisoned cell", tc.field)
		}
	}
}

// TestNonFiniteMemberResultIsAnErroredRun: in a federated cell, a NaN in
// one member cluster's result errors the run as a NaN in the folded
// result does — naming the field, the member, the cell, its unit hash,
// the replication and the seed, with the checkpoint saved — even while
// the folded result stays finite.
func TestNonFiniteMemberResultIsAnErroredRun(t *testing.T) {
	spec := fedSpec(t)
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	t.Cleanup(func() { runCell = (*scenario.Spec).RunCell })
	poisoned := map[uint64]int{} // seed → the job whose wait is NaN
	runCell = func(s *scenario.Spec, p scenario.CellParams) (*scenario.CellRun, error) {
		run, err := s.RunCell(p)
		if err == nil && p.Load == cells[1].Load && p.AdmissionIdx == cells[1].AdmissionIdx && p.RoutingIdx == cells[1].RoutingIdx {
			job := &run.ClusterResults[1].PerJob[0]
			job.Wait, poisoned[p.Seed] = math.NaN(), job.ID
		}
		return run, err
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	_, err := Run(spec, Options{Replications: 2, Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("a NaN in a member's result: the sweep reported no error")
	}
	seed := runSeed(hashes[1], 0)
	for _, want := range []string{
		fmt.Sprintf("non-finite wait of job %d", poisoned[seed]), "member big", cells[1].String(), hashes[1].String(), "rep 0",
		"seed " + strconv.FormatUint(seed, 10),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	saved, err := loadCheckpoint(ck)
	if err != nil || saved == nil {
		t.Fatalf("no checkpoint after the errored run: %v", err)
	}
	if c := saved.Cells[hashes[0].String()]; c.Folded != 2 {
		t.Errorf("checkpoint holds %+v for the healthy cell, want both replications folded", c)
	}
	if _, ok := saved.Cells[hashes[1].String()]; ok {
		t.Error("checkpoint holds a fold of the poisoned cell")
	}
}
