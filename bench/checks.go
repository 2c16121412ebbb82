package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// textCols are the CSV columns that hold labels; every other column
// holds a number.
var textCols = map[string]bool{
	"scenario": true, "arrival": true, "availability": true, "scheduler": true,
	"appmodel": true, "admission": true, "routing": true,
}

// checkSweepCSV verifies one dpssweep CSV export: cells+1 lines, every
// numeric field finite, replications = R, and per row the conservation
// law jobs + unfinished + round(mean_rejected_jobs·R) = jobs-per-run·R
// (every generated job finished, was stranded, or was rejected). It
// returns the simulated-job total and the number of rows that failed; a
// structural fault (unparsable, wrong row count) is an error.
func checkSweepCSV(data []byte, cells, reps, jobsPerRun int) (simJobs, badRows int, err error) {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return 0, 0, fmt.Errorf("csv: %w", err)
	}
	if len(rows) != cells+1 {
		return 0, 0, fmt.Errorf("csv: %d lines, want %d cells + header", len(rows), cells)
	}
	for _, need := range []string{"replications", "jobs", "unfinished", "mean_rejected_jobs"} {
		if !slices.Contains(rows[0], need) {
			return 0, 0, fmt.Errorf("csv: no %q column", need)
		}
	}
	for _, row := range rows[1:] {
		vals := make(map[string]float64, len(row))
		ok := true
		for i, field := range row {
			name := rows[0][i]
			if textCols[name] || field == "" { // min/max are empty for a cell that finished no job
				continue
			}
			v, perr := strconv.ParseFloat(field, 64)
			if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
			}
			vals[name] = v
		}
		total := int(vals["jobs"]) + int(vals["unfinished"]) + int(math.Round(vals["mean_rejected_jobs"]*float64(reps)))
		if int(vals["replications"]) != reps || total != jobsPerRun*reps {
			ok = false
		}
		simJobs += total
		if !ok {
			badRows++
		}
	}
	return simJobs, badRows, nil
}

// checkSweepJSON verifies the JSON export carries the same row count
// and replication count as the CSV.
func checkSweepJSON(data []byte, cells, reps int) error {
	var rep struct {
		Replications int               `json:"replications"`
		Cells        []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("json: %w", err)
	}
	if len(rep.Cells) != cells || rep.Replications != reps {
		return fmt.Errorf("json: %d cells × %d replications, want %d × %d",
			len(rep.Cells), rep.Replications, cells, reps)
	}
	return nil
}

// paperRow is one printed Fig. 10 row.
type paperRow struct {
	measured, predicted float64
}

// parsePaperOutput splits paperrepro's stdout into its table rows and
// the text that must be byte-identical between repetitions (everything
// but the "(completed in …)" wall-time line).
func parsePaperOutput(out []byte) (rows []paperRow, stable []byte) {
	var keep []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "(completed in") {
			continue
		}
		keep = append(keep, line)
		f := strings.Fields(line)
		if len(f) != 7 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		m, err1 := strconv.ParseFloat(f[2], 64)
		p, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			m, p = math.NaN(), math.NaN()
		}
		rows = append(rows, paperRow{measured: m, predicted: p})
	}
	return rows, []byte(strings.Join(keep, "\n"))
}

// checkPaperRows wants the 15 Fig. 10 rows with finite positive times.
func checkPaperRows(rows []paperRow) error {
	if len(rows) != paperConfigs-1 {
		return fmt.Errorf("paperrepro printed %d rows, want %d", len(rows), paperConfigs-1)
	}
	for i, r := range rows {
		for _, v := range []float64{r.measured, r.predicted} {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("paperrepro row %d: measured %v predicted %v", i, r.measured, r.predicted)
			}
		}
	}
	return nil
}
