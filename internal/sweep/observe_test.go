package sweep

import (
	"strings"
	"testing"

	"dpsim/internal/obs"
	"dpsim/internal/scenario"
)

func observeSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(`{
		"name": "sweep-observe",
		"nodes": [8],
		"loads": [1, 2],
		"seed": 11,
		"jobs": 5,
		"schedulers": ["equipartition", "rigid-fcfs"],
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 30, "comm": 0.05}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 8},
		"observe": {"sample_dt_s": 1, "timeseries": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestObserveLeavesAggregatesByteIdentical pins the sweep-level
// observer-effect-free contract: running the grid with per-replication
// recorders attached must leave the CSV and JSON exports byte-identical
// to the unobserved sweep.
func TestObserveLeavesAggregatesByteIdentical(t *testing.T) {
	spec := observeSpec(t)
	bare, err := Run(spec, Options{Replications: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(spec, Options{
		Replications: 2, Workers: 4,
		Observe: func(o Observation) obs.Probe {
			return obs.NewRecorder(spec.Observe.RecorderConfig(o.Label()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csvBare, csvObs, jsonBare, jsonObs strings.Builder
	if err := WriteCSV(&csvBare, spec.Name, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvObs, spec.Name, observed); err != nil {
		t.Fatal(err)
	}
	if csvBare.String() != csvObs.String() {
		t.Error("observation changed the CSV export")
	}
	if err := WriteJSON(&jsonBare, spec.Name, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonObs, spec.Name, observed); err != nil {
		t.Fatal(err)
	}
	if jsonBare.String() != jsonObs.String() {
		t.Error("observation changed the JSON export")
	}
}

// sweepTimeseries runs the observed grid with the given worker count
// and returns the time-series CSV.
func sweepTimeseries(t *testing.T, spec *scenario.Spec, workers int) string {
	t.Helper()
	var b strings.Builder
	sink := NewTimeSeriesSink(&b)
	_, err := Run(spec, Options{
		Replications: 2, Workers: workers,
		Observe: func(o Observation) obs.Probe {
			return obs.NewRecorder(spec.Observe.RecorderConfig(o.Label()))
		},
		OnObserved: sink.OnObserved,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTimeSeriesDeterministicAcrossWorkers: the sampler CSV must come
// out byte-identical no matter how many workers raced through the grid
// — OnObserved fires at the in-order fold frontier.
func TestTimeSeriesDeterministicAcrossWorkers(t *testing.T) {
	spec := observeSpec(t)
	serial := sweepTimeseries(t, spec, 1)
	parallel := sweepTimeseries(t, spec, 8)
	if serial != parallel {
		t.Fatal("time-series CSV differs between 1 and 8 workers")
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	wantHeader := strings.Join(TimeSeriesPrefixColumns(), ",") + "," + strings.Join(obs.SampleColumns(), ",")
	if lines[0] != wantHeader {
		t.Errorf("header = %q, want %q", lines[0], wantHeader)
	}
	// 2 loads × 2 schedulers × 2 replications, every run sampled at least
	// at t=0: at least 8 data rows.
	if len(lines) < 9 {
		t.Errorf("only %d time-series rows", len(lines)-1)
	}
	if !strings.Contains(serial, "equipartition") || !strings.Contains(serial, "rigid-fcfs") {
		t.Error("rows missing scheduler identity columns")
	}
}

// TestOnObservedOrder: probes arrive strictly in (cell, replication)
// index order regardless of completion order.
func TestOnObservedOrder(t *testing.T) {
	spec := observeSpec(t)
	var got []int
	reps := 3
	_, err := Run(spec, Options{
		Replications: reps, Workers: 8,
		Observe: func(Observation) obs.Probe {
			return obs.NewRecorder(obs.Config{})
		},
		OnObserved: func(o Observation, p obs.Probe) {
			got = append(got, o.Rep)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(Cells(spec))
	if len(got) != cells*reps {
		t.Fatalf("observed %d replications, want %d", len(got), cells*reps)
	}
	for i, rep := range got {
		if rep != i%reps {
			t.Fatalf("replication order broken at %d: got rep %d, want %d", i, rep, i%reps)
		}
	}
}
