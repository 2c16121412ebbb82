package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// JobRecord is one job of a cluster workload trace: the portable,
// simulator-independent description the scenario subsystem replays. The
// record deliberately mirrors cluster.Job without importing it, keeping
// the dependency direction trace → (nothing).
type JobRecord struct {
	ID       int
	Arrival  float64 // seconds since trace start
	MaxNodes int     // 0 means "no cap" (clamped to the cluster size)
	Phases   []PhaseRecord
}

// PhaseRecord is one phase of a traced job.
type PhaseRecord struct {
	Work float64 // serial seconds
	Comm float64 // communication factor: eff(p) = 1/(1+Comm·(p-1))
}

const jobsHeader = "id,arrival_s,max_nodes,phases"

// WriteJobs renders job records as CSV with the header
// "id,arrival_s,max_nodes,phases"; the phases column packs work:comm
// pairs separated by semicolons (e.g. "30:0.05;20:0.08").
func WriteJobs(w io.Writer, jobs []JobRecord) error {
	if _, err := fmt.Fprintln(w, jobsHeader); err != nil {
		return err
	}
	for _, j := range jobs {
		parts := make([]string, len(j.Phases))
		for i, ph := range j.Phases {
			parts[i] = fmt.Sprintf("%g:%g", ph.Work, ph.Comm)
		}
		if _, err := fmt.Fprintf(w, "%d,%g,%d,%s\n",
			j.ID, j.Arrival, j.MaxNodes, strings.Join(parts, ";")); err != nil {
			return err
		}
	}
	return nil
}

// ReadJobs parses a workload trace written by WriteJobs (or by hand).
// Records must be sorted by arrival and carry unique ids; ReadJobs
// verifies both so a corrupted trace fails loudly instead of tripping
// the simulator's causality check — or silently merging two jobs —
// mid-run.
func ReadJobs(r io.Reader) ([]JobRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: jobs csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty jobs csv")
	}
	if got := strings.Join(rows[0], ","); got != jobsHeader {
		return nil, fmt.Errorf("trace: jobs csv header %q, want %q", got, jobsHeader)
	}
	var out []JobRecord
	prev := 0.0
	lineOf := make(map[int]int, len(rows)-1) // id → the line that declared it
	for n, row := range rows[1:] {
		line := n + 2
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad id %q", line, row[0])
		}
		// IDs key the simulator's active-job state: a second job with the
		// same id would replace the first mid-run and corrupt both.
		if first, dup := lineOf[id]; dup {
			return nil, fmt.Errorf("trace: line %d: duplicate job id %d (first used on line %d)", line, id, first)
		}
		lineOf[id] = line
		arrival, err := strconv.ParseFloat(row[1], 64)
		if err != nil || arrival < 0 {
			return nil, fmt.Errorf("trace: line %d: bad arrival %q", line, row[1])
		}
		if arrival < prev {
			return nil, fmt.Errorf("trace: line %d: arrival %g before previous %g", line, arrival, prev)
		}
		prev = arrival
		maxNodes, err := strconv.Atoi(row[2])
		if err != nil || maxNodes < 0 {
			return nil, fmt.Errorf("trace: line %d: bad max_nodes %q", line, row[2])
		}
		phases, err := parsePhases(row[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		out = append(out, JobRecord{ID: id, Arrival: arrival, MaxNodes: maxNodes, Phases: phases})
	}
	return out, nil
}

func parsePhases(s string) ([]PhaseRecord, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty phases column")
	}
	parts := strings.Split(s, ";")
	out := make([]PhaseRecord, len(parts))
	for i, p := range parts {
		wc := strings.Split(p, ":")
		if len(wc) != 2 {
			return nil, fmt.Errorf("bad phase %q (want work:comm)", p)
		}
		work, err := strconv.ParseFloat(wc[0], 64)
		if err != nil || work <= 0 {
			return nil, fmt.Errorf("bad phase work %q", wc[0])
		}
		comm, err := strconv.ParseFloat(wc[1], 64)
		if err != nil || comm < 0 {
			return nil, fmt.Errorf("bad phase comm %q", wc[1])
		}
		out[i] = PhaseRecord{Work: work, Comm: comm}
	}
	return out, nil
}
