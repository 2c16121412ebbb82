package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dpsim/internal/obs"
)

// AtomicFile writes a file atomically: content streams into a hidden
// temp file in the destination directory and only a successful Commit
// renames it into place, so a killed or failed export never leaves a
// truncated file behind — a pre-existing file at the destination stays
// intact until the rename. Abort (or a failed Commit) removes the temp
// file. This is the groundwork for resumable sweeps: an output file that
// exists is always complete.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// CreateAtomic opens an atomic writer targeting path.
func CreateAtomic(path string) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write streams content into the temp file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit syncs, closes and renames the temp file onto the destination.
// On any error the temp file is removed and the destination is left as
// it was.
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.f.Name(), a.path)
	}
	if err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return nil
}

// Abort discards the temp file; the destination is untouched. Safe to
// call after Commit (a no-op), so `defer a.Abort()` pairs naturally with
// a final Commit.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// WriteFileAtomic renders write's output into path atomically via
// AtomicFile: the destination appears complete or not at all.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	defer a.Abort()
	if err := write(a); err != nil {
		return err
	}
	return a.Commit()
}

// csvHeader is the stable column order of WriteCSV.
const csvHeader = "scenario,arrival,availability,nodes,load,scheduler,appmodel,admission,routing," +
	"replications,jobs,unfinished," +
	"mean_response_s,p50_response_s,p95_response_s,p99_response_s,mean_wait_s," +
	"mean_makespan_s,mean_utilization,mean_avail_utilization,mean_slowdown," +
	"mean_reallocations,mean_capacity_events,mean_lost_work_s,mean_redistribution_s," +
	"mean_rejected_jobs,ci95_response_s,ci95_makespan_s,min_response_s,max_response_s"

// CSVColumns returns WriteCSV's column names in order — the authoritative
// list docs/output.md is pinned against (see TestOutputDocColumns).
func CSVColumns() []string { return strings.Split(csvHeader, ",") }

// optG renders an optional float: %g for a value, an empty field for
// nil (an empty cell has no extremes — see docs/output.md).
func optG(v *float64) string {
	if v == nil {
		return ""
	}
	return fmt.Sprintf("%g", *v)
}

// WriteCSV renders the aggregates as CSV, one row per cell in grid order.
// Fields are RFC 4180-quoted when needed (scenario names and trace labels
// may contain commas); floats use %g, so identical aggregates always
// serialize identically. min/max_response_s are empty for cells that
// finished no jobs.
func WriteCSV(w io.Writer, scenarioName string, stats []CellStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(strings.Split(csvHeader, ",")); err != nil {
		return err
	}
	for _, st := range stats {
		row := []string{
			scenarioName, st.Arrival, st.Avail,
			fmt.Sprintf("%d", st.Nodes), fmt.Sprintf("%g", st.Load), st.Scheduler, st.AppModel,
			st.Admission, st.Routing,
			fmt.Sprintf("%d", st.Replications), fmt.Sprintf("%d", st.Jobs),
			fmt.Sprintf("%d", st.Unfinished),
			fmt.Sprintf("%g", st.MeanResponse), fmt.Sprintf("%g", st.P50Response),
			fmt.Sprintf("%g", st.P95Response), fmt.Sprintf("%g", st.P99Response),
			fmt.Sprintf("%g", st.MeanWait),
			fmt.Sprintf("%g", st.MeanMakespan), fmt.Sprintf("%g", st.MeanUtilization),
			fmt.Sprintf("%g", st.MeanAvailUtilization), fmt.Sprintf("%g", st.MeanSlowdown),
			fmt.Sprintf("%g", st.MeanReallocations), fmt.Sprintf("%g", st.MeanCapacityEvents),
			fmt.Sprintf("%g", st.MeanLostWork), fmt.Sprintf("%g", st.MeanRedistribution),
			fmt.Sprintf("%g", st.MeanRejected),
			fmt.Sprintf("%g", st.CI95Response), fmt.Sprintf("%g", st.CI95Makespan),
			optG(st.MinResponse), optG(st.MaxResponse),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report is the JSON export envelope.
type Report struct {
	Scenario     string      `json:"scenario"`
	Replications int         `json:"replications"`
	Cells        []CellStats `json:"cells"`
}

// WriteJSON renders the aggregates as an indented JSON report.
func WriteJSON(w io.Writer, scenarioName string, stats []CellStats) error {
	reps := 0
	if len(stats) > 0 {
		reps = stats[0].Replications
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Scenario: scenarioName, Replications: reps, Cells: stats})
}

// TimeSeriesPrefixColumns returns the grid-identity columns the sweep
// time-series CSV prepends to obs.SampleColumns — one row fully names
// its cell and replication.
func TimeSeriesPrefixColumns() []string {
	return []string{"arrival", "availability", "nodes", "load", "scheduler", "appmodel", "admission", "routing", "rep"}
}

// TimeSeriesSink streams every observed replication's time-series
// samples into one CSV: columns TimeSeriesPrefixColumns +
// obs.SampleColumns, one series per member cluster of each replication.
// A federation member's series reads "federated:<cluster>" in the
// scheduler column. Its OnObserved method is shaped for
// Options.OnObserved, which serializes calls in grid order — the sink
// needs no locking and its output is bit-identical across worker
// counts.
type TimeSeriesSink struct {
	tw  *obs.TimeSeriesWriter
	err error
}

// NewTimeSeriesSink returns a sink writing CSV to w.
func NewTimeSeriesSink(w io.Writer) *TimeSeriesSink {
	return &TimeSeriesSink{tw: obs.NewTimeSeriesWriter(w, TimeSeriesPrefixColumns()...)}
}

// OnObserved appends the member's samples; probes that are not
// *obs.Recorder are ignored. The first write error sticks and is
// reported by Flush.
func (s *TimeSeriesSink) OnObserved(o Observation, p obs.Probe) {
	rec, ok := p.(*obs.Recorder)
	if !ok || s.err != nil {
		return
	}
	c := o.Cell
	scheduler := c.Scheduler
	if o.Cluster != "" {
		scheduler += ":" + o.Cluster
	}
	prefix := []string{
		c.Arrival, c.Avail,
		fmt.Sprintf("%d", c.Nodes), fmt.Sprintf("%g", c.Load),
		scheduler, c.AppModel, c.Admission, c.Routing, fmt.Sprintf("%d", o.Rep),
	}
	s.err = s.tw.WriteAll(prefix, rec.Samples())
}

// Flush flushes the CSV and reports the first error encountered.
func (s *TimeSeriesSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.tw.Flush()
}
