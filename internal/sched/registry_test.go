package sched

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allPolicies is the full registered set this PR ships; keeping the
// literal here makes an accidental deregistration a test failure.
var allPolicies = []string{
	"easy-backfill", "efficiency-greedy", "equipartition", "fair-share",
	"malleable-hysteresis", "moldable", "rigid-fcfs", "sjf-moldable",
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if !reflect.DeepEqual(names, allPolicies) {
		t.Fatalf("Names() = %v, want %v", names, allPolicies)
	}
}

func TestByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"rigid-fcfs", "RIGID-FCFS", "Equipartition", "EFFICIENCY-greedy", "Moldable", "Easy-Backfill", "FAIR-share", "sjf-MOLDABLE", "Malleable-Hysteresis"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("%q did not resolve", name)
		}
		if !strings.EqualFold(s.Name(), name) {
			t.Fatalf("%q resolved to %q", name, s.Name())
		}
	}
	if _, ok := ByName("no-such"); ok {
		t.Fatal("bogus name resolved")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("no-such", nil); err == nil || !strings.Contains(err.Error(), "rigid-fcfs") {
		t.Fatalf("unknown-name error should list valid names, got %v", err)
	}
	// Unknown parameters must fail construction, not fall back silently.
	for _, name := range Names() {
		if _, err := New(name, Params{"not_a_param": 1}); err == nil {
			t.Errorf("%s accepted an unknown parameter", name)
		}
	}
	// Known parameters construct.
	if _, err := New("moldable", Params{"min_efficiency": 0.7}); err != nil {
		t.Fatal(err)
	}
	if _, err := New("malleable-hysteresis", Params{"epoch_s": 10, "min_delta": 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := New("malleable-hysteresis", Params{"min_delta": 0}); err == nil {
		t.Fatal("min_delta 0 accepted")
	}
	// Out-of-range thresholds must be rejected, not silently remapped to
	// the default: a mislabeled sweep axis is worse than an error.
	for _, name := range []string{"moldable", "sjf-moldable"} {
		for _, bad := range []float64{0, -0.5, 1.5} {
			if _, err := New(name, Params{"min_efficiency": bad}); err == nil {
				t.Errorf("%s accepted min_efficiency=%g", name, bad)
			}
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("rigid-fcfs", func(Params) (Scheduler, error) { return &Rigid{}, nil })
}

// TestParseFormatSpecRoundTrip: a parameterized label resolves back to
// the identical policy, and parse errors carry the package's own wording
// (internal/spec.TestParseFormat is the grammar table).
func TestParseFormatSpecRoundTrip(t *testing.T) {
	want := Params{"epoch_s": 45, "min_delta": 2}
	spec := FormatSpec("malleable-hysteresis", want)
	if spec != "malleable-hysteresis(epoch_s=45,min_delta=2)" {
		t.Fatalf("FormatSpec = %q", spec)
	}
	name, params, err := ParseSpec(spec)
	if err != nil || name != "malleable-hysteresis" || !reflect.DeepEqual(params, want) {
		t.Fatalf("ParseSpec(%q) = %q, %v, %v", spec, name, params, err)
	}
	if _, err := New(name, params); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseSpec("a(b=NaN)"); err == nil ||
		!strings.HasPrefix(err.Error(), `sched: scheduler spec "a(b=NaN)": bad parameter`) {
		t.Errorf("non-finite parameter error = %v", err)
	}
	if _, err := New("no-such", nil); err == nil || !strings.HasPrefix(err.Error(), `sched: unknown scheduler "no-such"`) {
		t.Errorf("unknown-name error = %v", err)
	}
}
