package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dpsim/internal/metrics"
)

// The load is closed-loop: one CLI invocation at a time, two workers on
// the sandbox's two cores, the next invocation starting when the last
// one has exited.
const childWorkers = 2

// repetition is one timed child process, measured from outside: wall
// from process start to exit with its outputs committed, CPU and peak
// RSS from the child's rusage.
type repetition struct {
	wallS, cpuS, rssMB float64
	sha                string
	simJobs            int
	// failedOps counts the replications this repetition got wrong: all of
	// them on a non-zero exit or a structural fault, R per bad CSV row.
	failedOps int
	fault     string
}

// runRep runs the workload's CLI once in a fresh temp dir and checks
// what it wrote.
func (b *bench) runRep(p *prepared) repetition {
	w := p.w
	fail := func(err error) repetition {
		return repetition{failedOps: w.runs, fault: err.Error()}
	}
	dir, err := os.MkdirTemp(b.tmpDir, w.name+"-rep-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	csvPath, jsonPath, ckPath := filepath.Join(dir, "out.csv"), filepath.Join(dir, "out.json"), filepath.Join(dir, "checkpoint.json")
	var cmd *exec.Cmd
	if w.file == "" {
		cmd = exec.Command(filepath.Join(b.binDir, "paperrepro"), "-exp", "fig10", "-quick", "-seeds", "1")
	} else {
		args := []string{"-scenario", p.scenarioPath, "-replications", strconv.Itoa(w.reps),
			"-workers", strconv.Itoa(childWorkers), "-q", "-csv", csvPath, "-json", jsonPath}
		if w.checkpoint {
			args = append(args, "-checkpoint", ckPath)
		}
		cmd = exec.Command(filepath.Join(b.binDir, "dpssweep"), args...)
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childWorkers))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return fail(fmt.Errorf("%s: %w: %s", filepath.Base(cmd.Path), err, bytes.TrimSpace(stderr.Bytes())))
	}
	rep := repetition{
		wallS: wall.Seconds(),
		cpuS:  (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if w.file == "" {
		rows, stable := parsePaperOutput(stdout.Bytes())
		if err := checkPaperRows(rows); err != nil {
			return fail(err)
		}
		rep.sha = sha(stable)
		return rep
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		return fail(err)
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		return fail(err)
	}
	simJobs, badRows, err := checkSweepCSV(csvData, len(p.cells), w.reps, w.jobsPerRun)
	if err != nil {
		return fail(err)
	}
	if err := checkSweepJSON(jsonData, len(p.cells), w.reps); err != nil {
		return fail(err)
	}
	if w.checkpoint {
		ck, err := os.ReadFile(ckPath)
		if err != nil {
			return fail(err)
		}
		if !json.Valid(ck) {
			return fail(fmt.Errorf("checkpoint is not valid JSON"))
		}
	}
	rep.simJobs = simJobs
	rep.failedOps = badRows * w.reps
	if badRows > 0 {
		rep.fault = fmt.Sprintf("%d CSV rows fail the finiteness/conservation check", badRows)
	}
	rep.sha = sha(csvData, jsonData)
	return rep
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summary condenses one metric's samples. Value is what the metric
// reports; the rest is printed beside it. No percentile above the
// median is given: a run holds too few repetitions to have ten samples
// beyond one.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
}

// summarize reports a time as the first quartile of its samples. The
// sandbox's noise is one-sided — a neighbour on the host only ever
// slows a repetition down, in bursts lasting several repetitions — so
// the fast quartile follows the program while the median follows the
// neighbours (measured while sizing: across runs the median's spread is
// about twice the first quartile's). Median, min and max stay visible.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{Value: metrics.PercentileSorted(s, 0.25), Median: metrics.PercentileSorted(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// scaled converts a summary of measured seconds into reference seconds.
func (s summary) scaled(speed float64) summary {
	return summary{Value: s.Value * speed, Median: s.Median * speed, Min: s.Min * speed, Max: s.Max * speed, N: s.N}
}

// e2eResult is one workload's untraced outcome. cal holds the reference
// kernel's time before each repetition; speed is calNominalS over its
// first quartile (1 on the reference sandbox in its fast regime, less
// when the machine is slower). wall and cpu are in reference seconds —
// measured seconds × speed; wallRaw and cpuRaw are as measured.
type e2eResult struct {
	reps            []repetition
	cal             []float64
	speed           float64
	ops             int
	failedOps       int
	sha             string
	wall, cpu       summary
	wallRaw, cpuRaw summary
}

// finish folds the repetitions: every repetition must be byte-identical
// to the first (same seed, same inputs), or all of its ops fail.
func (r *e2eResult) finish(w *workload, log io.Writer) {
	var walls, cpus []float64
	for i := range r.reps {
		rep := &r.reps[i]
		if rep.failedOps == 0 && r.sha == "" {
			r.sha = rep.sha
		}
		if rep.failedOps == 0 && rep.sha != r.sha {
			rep.failedOps = w.runs
			fmt.Fprintf(log, "%s repetition %d: output differs from the first repetition's\n", w.name, i)
		}
		r.ops += w.runs
		r.failedOps += rep.failedOps
		if rep.failedOps == 0 {
			walls = append(walls, rep.wallS)
			cpus = append(cpus, rep.cpuS)
		}
	}
	r.speed = ratio(calNominalS, summarize(r.cal).Value)
	r.wallRaw, r.cpuRaw = summarize(walls), summarize(cpus)
	r.wall, r.cpu = r.wallRaw.scaled(r.speed), r.cpuRaw.scaled(r.speed)
}

// metrics derives the end-to-end metric values, and the sample
// summaries printed beside the timed ones.
func (r *e2eResult) metrics(p *prepared) (map[string]float64, map[string]summary) {
	setup := summarize(p.setupS).scaled(r.speed)
	return map[string]float64{
			"wall_s":     r.wall.Value,
			"cpu_s":      r.cpu.Value,
			"runs_per_s": ratio(float64(p.w.runs), r.wall.Value),
			"setup_s":    setup.Value,
		}, map[string]summary{
			"wall_s": r.wall, "cpu_s": r.cpu, "setup_s": setup,
		}
}
