package trace

import (
	"strings"
	"testing"
)

func TestJobsCSVRoundTrip(t *testing.T) {
	jobs := []JobRecord{
		{ID: 0, Arrival: 0, MaxNodes: 8, Phases: []PhaseRecord{{Work: 30, Comm: 0.05}, {Work: 20, Comm: 0.08}}},
		{ID: 1, Arrival: 12.5, MaxNodes: 0, Phases: []PhaseRecord{{Work: 5, Comm: 0}}},
	}
	var sb strings.Builder
	if err := WriteJobs(&sb, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobs(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("round trip %d jobs, want %d", len(got), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], got[i]
		if a.ID != b.ID || a.Arrival != b.Arrival || a.MaxNodes != b.MaxNodes || len(a.Phases) != len(b.Phases) {
			t.Fatalf("job %d: %+v vs %+v", i, a, b)
		}
		for k := range a.Phases {
			if a.Phases[k] != b.Phases[k] {
				t.Fatalf("job %d phase %d: %+v vs %+v", i, k, a.Phases[k], b.Phases[k])
			}
		}
	}
}

func TestReadJobsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":        "id,arrival\n",
		"empty":             "",
		"bad arrival":       "id,arrival_s,max_nodes,phases\n0,x,4,1:0\n",
		"negative arrival":  "id,arrival_s,max_nodes,phases\n0,-1,4,1:0\n",
		"unsorted arrivals": "id,arrival_s,max_nodes,phases\n0,5,4,1:0\n1,2,4,1:0\n",
		"empty phases":      "id,arrival_s,max_nodes,phases\n0,0,4,\n",
		"bad phase pair":    "id,arrival_s,max_nodes,phases\n0,0,4,1\n",
		"zero work":         "id,arrival_s,max_nodes,phases\n0,0,4,0:0.1\n",
		"negative comm":     "id,arrival_s,max_nodes,phases\n0,0,4,1:-0.1\n",
		"duplicate id":      "id,arrival_s,max_nodes,phases\n7,0,4,1:0\n7,1,4,1:0\n",
	}
	for name, in := range cases {
		if _, err := ReadJobs(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A repeated id names both offending lines.
	_, err := ReadJobs(strings.NewReader("id,arrival_s,max_nodes,phases\n0,0,4,1:0\n1,1,4,1:0\n1,2,4,1:0\n2,3,4,1:0\n"))
	if err == nil {
		t.Fatal("duplicate id: accepted")
	}
	for _, want := range []string{"duplicate job id 1", "line 4", "line 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("duplicate id error %q does not mention %q", err, want)
		}
	}
}
