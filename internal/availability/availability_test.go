package availability

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dpsim/internal/rng"
	"dpsim/internal/trace"
)

func gen(t *testing.T, spec Spec, nodes int, seed uint64) []Change {
	t.Helper()
	ch, err := spec.Generate(nodes, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// checkInvariants: sorted, in range, successive capacities differ, notice
// only on drops.
func checkInvariants(t *testing.T, ch []Change, nodes, minCap int) {
	t.Helper()
	last := nodes
	prevAt := -1.0
	for i, c := range ch {
		if c.At < prevAt {
			t.Fatalf("change %d at %g before %g", i, c.At, prevAt)
		}
		prevAt = c.At
		if c.Capacity < minCap || c.Capacity > nodes {
			t.Fatalf("change %d capacity %d outside [%d, %d]", i, c.Capacity, minCap, nodes)
		}
		if c.Capacity == last {
			t.Fatalf("change %d is a no-op at capacity %d", i, c.Capacity)
		}
		if c.NoticeS > 0 && c.Capacity > last {
			t.Fatalf("change %d: notice %g on a capacity rise", i, c.NoticeS)
		}
		last = c.Capacity
	}
}

func TestMaintenanceWindows(t *testing.T) {
	spec := Spec{Process: "maintenance", StartS: 100, PeriodS: 1000, DurationS: 200, NodesDown: 4, NoticeS: 50, HorizonS: 3500}
	ch := gen(t, spec, 16, 1)
	checkInvariants(t, ch, 16, 1)
	// Windows at 100, 1100, 2100, 3100: a down and an up each.
	if len(ch) != 8 {
		t.Fatalf("got %d changes, want 8: %+v", len(ch), ch)
	}
	for i := 0; i < len(ch); i += 2 {
		down, up := ch[i], ch[i+1]
		if down.Capacity != 12 || up.Capacity != 16 {
			t.Fatalf("window %d capacities %d/%d, want 12/16", i/2, down.Capacity, up.Capacity)
		}
		if up.At-down.At != 200 {
			t.Fatalf("window %d duration %g, want 200", i/2, up.At-down.At)
		}
		if down.NoticeS != 50 || up.NoticeS != 0 {
			t.Fatalf("window %d notices %g/%g, want 50/0", i/2, down.NoticeS, up.NoticeS)
		}
	}
}

// TestMaintenanceClippedAtHorizon: a window straddling the horizon takes
// nodes down but never restores them — no change is emitted at or past
// HorizonS, matching every other process.
func TestMaintenanceClippedAtHorizon(t *testing.T) {
	spec := Spec{Process: "maintenance", StartS: 3400, PeriodS: 1000, DurationS: 200, NodesDown: 4, HorizonS: 3500}
	ch := gen(t, spec, 16, 1)
	if len(ch) != 1 {
		t.Fatalf("got %d changes, want 1 (no restore past the horizon): %+v", len(ch), ch)
	}
	if ch[0].At != 3400 || ch[0].Capacity != 12 {
		t.Fatalf("change = %+v, want down to 12 at 3400", ch[0])
	}
}

func TestMaintenanceIgnoresRNG(t *testing.T) {
	spec := Spec{Process: "maintenance", PeriodS: 500, DurationS: 100, NodesDown: 2, HorizonS: 2000}
	a := gen(t, spec, 8, 1)
	b := gen(t, spec, 8, 999)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("deterministic process depends on the seed")
	}
}

func TestFailuresDeterminism(t *testing.T) {
	spec := Spec{Process: "failures", MTTFS: 2000, MTTRS: 300, HorizonS: 20000}
	a := gen(t, spec, 24, 7)
	b := gen(t, spec, 24, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	c := gen(t, spec, 24, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
	if len(a) == 0 {
		t.Fatal("no failures generated over 10 MTTFs on 24 nodes")
	}
	checkInvariants(t, a, 24, 1)
}

func TestFailuresMinCapacityFloor(t *testing.T) {
	// Brutal failure rate: raw capacity would hit zero, the floor holds.
	spec := Spec{Process: "failures", MTTFS: 50, MTTRS: 5000, MinCapacity: 3, HorizonS: 30000}
	ch := gen(t, spec, 8, 3)
	checkInvariants(t, ch, 8, 3)
	hitFloor := false
	for _, c := range ch {
		if c.Capacity == 3 {
			hitFloor = true
		}
	}
	if !hitFloor {
		t.Fatal("capacity never reached the floor under a 100:1 down ratio")
	}
}

func TestWeibullFailures(t *testing.T) {
	// The mean-parameterized Weibull sampler must honor its mean...
	src := rng.New(11)
	var sum float64
	n := 4000
	for i := 0; i < n; i++ {
		sum += src.Weibull(1000, 2)
	}
	if mean := sum / float64(n); math.Abs(mean-1000) > 50 {
		t.Fatalf("mean Weibull deviate %g, want ≈1000", mean)
	}
	// ...and the weibull failure law must yield a valid timeline distinct
	// from the exponential one under the same seed.
	wb := Spec{Process: "failures", MTTFS: 2000, MTTRS: 300, Dist: "weibull", Shape: 0.7, HorizonS: 20000}
	ex := wb
	ex.Dist = "exp"
	a := gen(t, wb, 24, 7)
	b := gen(t, ex, 24, 7)
	checkInvariants(t, a, 24, 1)
	if len(a) == 0 {
		t.Fatal("no weibull failures over 10 MTTFs on 24 nodes")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("weibull and exponential laws produced identical timelines")
	}
}

func TestSpotReclaimAndRestore(t *testing.T) {
	spec := Spec{Process: "spot", ReclaimMeanS: 500, ReclaimNodes: 3, NoticeS: 120, RestoreMeanS: 200, HorizonS: 10000}
	ch := gen(t, spec, 32, 5)
	checkInvariants(t, ch, 32, 1)
	if len(ch) == 0 {
		t.Fatal("no reclaims over 20 mean intervals")
	}
	sawDrop, sawRise := false, false
	last := 32
	for _, c := range ch {
		if c.Capacity < last {
			sawDrop = true
			if c.NoticeS != 120 {
				t.Fatalf("drop at %g has notice %g, want 120", c.At, c.NoticeS)
			}
		} else {
			sawRise = true
		}
		last = c.Capacity
	}
	if !sawDrop || !sawRise {
		t.Fatalf("expected both reclaims and restores, got drop=%v rise=%v", sawDrop, sawRise)
	}
}

func TestChurnStationaryStart(t *testing.T) {
	// Two-thirds offline in steady state: the t=0 capacity should reflect
	// the stationary law, not an all-up start.
	spec := Spec{Process: "churn", MeanOnS: 100, MeanOffS: 200, HorizonS: 5000}
	ch := gen(t, spec, 300, 13)
	checkInvariants(t, ch, 300, 1)
	if len(ch) == 0 || ch[0].At != 0 {
		t.Fatalf("churn should open with a t=0 step, got %+v", ch[:min(3, len(ch))])
	}
	start := ch[0].Capacity
	if start < 60 || start > 140 {
		t.Fatalf("t=0 capacity %d far from stationary ≈100 of 300", start)
	}
	mc := MeanCapacity(ch, 300, 5000)
	if mc < 70 || mc > 130 {
		t.Fatalf("mean capacity %g far from stationary ≈100", mc)
	}
}

func TestTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cap.csv")
	var sb strings.Builder
	if err := trace.WriteCapacity(&sb, []trace.CapacityPoint{
		{T: 0, Capacity: 8}, {T: 50, Capacity: 4}, {T: 80, Capacity: 4}, {T: 120, Capacity: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Process: "trace", Path: "cap.csv", Dir: dir, NoticeS: 30}
	ch := gen(t, spec, 8, 1)
	// 8→8 at t=0 and 4→4 at t=80 are no-ops; capacity 10 clamps to 8.
	want := []Change{{At: 50, Capacity: 4, NoticeS: 30}, {At: 120, Capacity: 8}}
	if !reflect.DeepEqual(ch, want) {
		t.Fatalf("got %+v, want %+v", ch, want)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Process: "volcano"},
		{Process: "maintenance", PeriodS: 10, DurationS: 20, NodesDown: 1},
		{Process: "maintenance", PeriodS: 10, DurationS: 5},
		{Process: "failures", MTTFS: 10},
		{Process: "failures", MTTFS: 10, MTTRS: 5, Dist: "gamma"},
		{Process: "spot"},
		{Process: "churn", MeanOnS: 10},
		{Process: "trace"},
		{Process: "failures", MTTFS: 10, MTTRS: 5, HorizonS: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, s)
		}
	}
	// failures and churn drop nodes without notice, so a notice_s there
	// would be ignored: it is rejected by name instead.
	for _, s := range []Spec{
		{Process: "failures", MTTFS: 400, MTTRS: 100, NoticeS: 30},
		{Process: "failures", MTTFS: 400, MTTRS: 100, Dist: "weibull", NoticeS: 1e-9},
		{Process: "churn", MeanOnS: 500, MeanOffS: 100, NoticeS: 30},
	} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "notice_s") || !strings.Contains(err.Error(), s.Process) {
			t.Fatalf("%+v: error %v, want one naming %s and notice_s", s, err, s.Process)
		}
		if _, err := s.Timeline(16, rng.New(1)); err == nil {
			t.Fatalf("%+v: Timeline accepted it", s)
		}
	}
	empty := Spec{}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty process rejected: %v", err)
	}
	if ch := gen(t, Spec{}, 8, 1); ch != nil {
		t.Fatalf("empty process generated changes: %+v", ch)
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite value in any float
// field of any process's spec is rejected by its JSON key, whether the
// process uses the field or not, and so is every Timeline built from it.
// JSON cannot carry one, but a Spec built in Go can, and NaN passes every
// range check (a NaN reclaim_mean_s drew changes at NaN; a NaN duration_s
// never restored a window).
func TestValidateRejectsNonFinite(t *testing.T) {
	bases := []Spec{
		{},
		{Process: "maintenance", PeriodS: 100, DurationS: 10, NodesDown: 2, NoticeS: 5},
		{Process: "failures", MTTFS: 100, MTTRS: 10, Dist: "weibull", Shape: 2},
		{Process: "spot", ReclaimMeanS: 50, RestoreMeanS: 20, NoticeS: 5},
		{Process: "churn", MeanOnS: 100, MeanOffS: 50},
		{Process: "trace", Path: "cap.csv"},
	}
	fields := reflect.TypeOf(Spec{})
	covered := 0
	for i := range fields.NumField() {
		f := fields.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		covered++
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		for _, base := range bases {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				spec := base
				reflect.ValueOf(&spec).Elem().Field(i).SetFloat(v)
				want := key + " is " + strconv.FormatFloat(v, 'g', -1, 64) + ", not a finite number"
				if err := spec.Validate(); err == nil || err.Error() != want {
					t.Errorf("%s with %s = %g: Validate error %v, want %q", base.Label(), key, v, err, want)
				}
				if _, err := spec.Timeline(8, rng.New(1)); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s = %g: Timeline error %v, want %q", base.Label(), key, v, err, want)
				}
			}
		}
	}
	if covered == 0 {
		t.Error("no float field found in Spec")
	}
}

func TestLabels(t *testing.T) {
	cases := map[string]Spec{
		"none":             {},
		"maintenance":      {Process: "maintenance"},
		"failures":         {Process: "failures"},
		"failures:weibull": {Process: "failures", Dist: "weibull"},
		"spot":             {Process: "spot"},
		"trace:cap.csv":    {Process: "trace", Path: "some/dir/cap.csv"},
	}
	for want, spec := range cases {
		if got := spec.Label(); got != want {
			t.Fatalf("label %q, want %q", got, want)
		}
	}
}
