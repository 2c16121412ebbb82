package sweep

import (
	"bytes"
	"strings"
	"testing"

	"dpsim/internal/scenario"
)

// fedSpec parses a small federated scenario: two heterogeneous member
// clusters, two admission policies × two routing policies, poisson
// arrivals over the fleet total of 12 nodes.
func fedSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(`{
		"name": "fedsweep",
		"loads": [0.8, 1.2],
		"seed": 17,
		"jobs": 10,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 12, "comm": 0.05}],
		"arrivals": [{"process": "poisson", "mean_interarrival_s": 3}],
		"federation": {
			"clusters": [
				{"name": "small", "nodes": 4, "scheduler": "equipartition"},
				{"name": "big", "nodes": 8, "scheduler": "rigid-fcfs",
				 "availability": {"process": "failures", "mttf_s": 150, "mttr_s": 30, "horizon_s": 1500}}
			],
			"admissions": ["always", "token-bucket(rate=0.2,burst=2)"],
			"routings": ["round-robin", "least-loaded"]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestFederatedCellsExpansion(t *testing.T) {
	spec := fedSpec(t)
	cells := Cells(spec)
	// 1 arrival × 1 avail × 1 nodes × 2 loads × 1 sched × 1 model × 2 admissions × 2 routings.
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	c := cells[0]
	if c.Scheduler != "federated" || c.SchedulerIdx != -1 ||
		c.Avail != "federated" || c.AvailIdx != -1 ||
		c.AppModel != "federated" || c.AppModelIdx != -1 {
		t.Fatalf("federated pseudo-axes wrong: %+v", c)
	}
	if c.Nodes != 12 {
		t.Fatalf("nodes = %d, want fleet total 12", c.Nodes)
	}
	if c.Admission != "always" || c.AdmissionIdx != 0 || c.Routing != "round-robin" || c.RoutingIdx != 0 {
		t.Fatalf("first cell policies: %+v", c)
	}
	// Routing is the innermost axis.
	if cells[1].Admission != "always" || cells[1].Routing != "least-loaded" {
		t.Fatalf("second cell policies: %+v", cells[1])
	}
	last := cells[3]
	if last.Admission != "token-bucket(burst=2,rate=0.2)" || last.Routing != "least-loaded" {
		t.Fatalf("fourth cell policies: %+v", last)
	}
}

func TestNonFederatedCellsCarryNonePolicies(t *testing.T) {
	spec := testSpec(t)
	for i, c := range Cells(spec) {
		if c.Admission != "none" || c.AdmissionIdx != -1 || c.Routing != "none" || c.RoutingIdx != -1 {
			t.Fatalf("cell %d policies = %q/%q (%d/%d), want none/none (-1/-1)",
				i, c.Admission, c.Routing, c.AdmissionIdx, c.RoutingIdx)
		}
	}
}

// TestFederatedHashCanonicalization: the hash is the cell's identity —
// cells differing only in a policy hash differently, and editing one
// policy axis never re-seeds cells of the other axis.
func TestFederatedHashCanonicalization(t *testing.T) {
	spec := fedSpec(t)
	cells := Cells(spec)
	hashes := CellHashes(spec, cells)
	seen := map[string]int{}
	for i, h := range hashes {
		if j, dup := seen[h.String()]; dup {
			t.Fatalf("cells %d and %d hash identically: %+v vs %+v", j, i, cells[j], cells[i])
		}
		seen[h.String()] = i
	}

	// Appending a routing policy must keep every existing cell's hash:
	// content identity ignores grid position.
	grown := fedSpec(t)
	grown.Federation.Routings = append(grown.Federation.Routings, scenario.RoutingSpec{Name: "weighted"})
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}
	grownCells := Cells(grown)
	grownHashes := CellHashes(grown, grownCells)
	byKey := map[string]CellHash{}
	for i, c := range grownCells {
		byKey[c.Admission+"|"+c.Routing+"|"+formatLoad(c.Load)] = grownHashes[i]
	}
	for i, c := range cells {
		h, ok := byKey[c.Admission+"|"+c.Routing+"|"+formatLoad(c.Load)]
		if !ok {
			t.Fatalf("cell %+v missing from grown grid", c)
		}
		if h != hashes[i] {
			t.Fatalf("cell %+v re-hashed after a routing-axis append", c)
		}
	}
}

func formatLoad(l float64) string {
	if l < 1 {
		return "lo"
	}
	return "hi"
}

// TestFederatedSweepWorkerDeterminism: the federated sweep's CSV and
// JSON exports are byte-identical across worker counts 1..8.
func TestFederatedSweepWorkerDeterminism(t *testing.T) {
	spec := fedSpec(t)
	var want string
	for workers := 1; workers <= 8; workers++ {
		stats, err := Run(spec, Options{Replications: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv, js bytes.Buffer
		if err := WriteCSV(&csv, spec.Name, stats); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&js, spec.Name, stats); err != nil {
			t.Fatal(err)
		}
		got := csv.String() + "\x00" + js.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d export differs from workers=1", workers)
		}
	}
}

// TestFederatedShardMerge: running the federated grid as two shards and
// merging equals the single-process run byte-for-byte.
func TestFederatedShardMerge(t *testing.T) {
	spec := fedSpec(t)
	opt := Options{Replications: 2}
	full, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]CellStats, len(full))
	for i := 0; i < 2; i++ {
		o := opt
		o.Shard = ShardSel{Index: i, Count: 2}
		p, err := runGrid(spec, o)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		stats := p.stats()
		for _, u := range p.units {
			for _, ci := range u.cells {
				merged[ci] = stats[ci]
			}
		}
	}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, spec.Name, full); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, spec.Name, merged); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("sharded merge differs from full run")
	}
}

// TestFederatedCSVColumns: the federated export carries the policy
// columns and a populated mean_rejected_jobs for the throttling cell.
func TestFederatedCSVColumns(t *testing.T) {
	spec := fedSpec(t)
	stats, err := Run(spec, Options{Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, spec.Name, stats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	header := strings.SplitN(out, "\n", 2)[0]
	for _, col := range []string{"admission", "routing", "mean_rejected_jobs"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header %q lacks column %q", header, col)
		}
	}
	if !strings.Contains(out, "token-bucket(burst=2,rate=0.2)") {
		t.Fatal("export lacks the token-bucket admission label")
	}
	sawRejection := false
	for _, st := range stats {
		if st.Admission == "always" && st.MeanRejected != 0 {
			t.Fatalf("always admission rejected %g jobs", st.MeanRejected)
		}
		if st.MeanRejected > 0 {
			sawRejection = true
		}
	}
	if !sawRejection {
		t.Fatal("token-bucket cells rejected nothing; throttle the spec harder")
	}
}
