package federation

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegisteredNames(t *testing.T) {
	wantA := []string{"always", "quota", "token-bucket"}
	if got := AdmissionNames(); !reflect.DeepEqual(got, wantA) {
		t.Errorf("AdmissionNames() = %v, want %v", got, wantA)
	}
	wantR := []string{"least-loaded", "round-robin", "weighted"}
	if got := RouterNames(); !reflect.DeepEqual(got, wantR) {
		t.Errorf("RouterNames() = %v, want %v", got, wantR)
	}
}

func TestNewCaseInsensitive(t *testing.T) {
	a, err := NewAdmission("ALWAYS", nil)
	if err != nil || a.Name() != "always" {
		t.Errorf("NewAdmission(ALWAYS) = %v, %v", a, err)
	}
	r, err := NewRouter("Round-Robin", nil)
	if err != nil || r.Name() != "round-robin" {
		t.Errorf("NewRouter(Round-Robin) = %v, %v", r, err)
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := NewAdmission("nope", nil); err == nil ||
		!strings.Contains(err.Error(), "unknown admission policy") ||
		!strings.Contains(err.Error(), "always") {
		t.Errorf("unknown admission error = %v", err)
	}
	if _, err := NewRouter("nope", nil); err == nil ||
		!strings.Contains(err.Error(), "unknown router policy") ||
		!strings.Contains(err.Error(), "round-robin") {
		t.Errorf("unknown router error = %v", err)
	}
}

// TestRegisterPanics: duplicate (case-insensitive) or nil registrations
// are programming errors, reported under the family's own noun. The
// registry mechanics are tested once in internal/spec.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(frag string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), frag) {
				t.Errorf("panic = %v, want containing %q", r, frag)
			}
		}()
		f()
	}
	mustPanic("federation: duplicate admission policy always", func() { RegisterAdmission("ALWAYS", newAlwaysAdmit) })
	mustPanic("federation: duplicate router policy round-robin", func() { RegisterRouter("Round-Robin", newRoundRobin) })
	mustPanic("nil factory", func() { RegisterRouter("nil-router", nil) })
}

// TestParseSpec pins the package's error wording over the shared grammar
// (internal/spec.TestParseFormat is the grammar table).
func TestParseSpec(t *testing.T) {
	name, params, err := ParseSpec("token-bucket(rate=0.5,burst=3)")
	if err != nil || name != "token-bucket" || !reflect.DeepEqual(params, Params{"rate": 0.5, "burst": 3}) {
		t.Errorf("ParseSpec = %q, %v, %v", name, params, err)
	}
	if _, _, err := ParseSpec(""); err == nil || err.Error() != "federation: empty policy spec" {
		t.Errorf("ParseSpec(\"\") = %v", err)
	}
	if _, _, err := ParseSpec("quota(tenants=NaN)"); err == nil ||
		!strings.HasPrefix(err.Error(), `federation: policy spec "quota(tenants=NaN)": bad parameter`) {
		t.Errorf("non-finite parameter error = %v", err)
	}
}

// TestFormatSpecRoundTrip: a registered policy's label parses back to
// itself and constructs.
func TestFormatSpecRoundTrip(t *testing.T) {
	const spec = "quota(jobs=8,tenants=2,window_s=120)"
	name, params, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	if got := FormatSpec(name, params); got != spec {
		t.Errorf("FormatSpec(ParseSpec(%q)) = %q", spec, got)
	}
	if _, err := NewAdmission(name, params); err != nil {
		t.Errorf("NewAdmission(%q): %v", spec, err)
	}
}

func TestPolicyParamValidation(t *testing.T) {
	cases := []struct {
		kind string // "a" admission, "r" router
		name string
		p    Params
		frag string
	}{
		{"a", "always", Params{"x": 1}, "unknown parameter"},
		{"a", "token-bucket", Params{"rate": 0}, "rate must be > 0"},
		{"a", "token-bucket", Params{"rate": -1}, "rate must be > 0"},
		{"a", "token-bucket", Params{"burst": 0.5}, "burst must be >= 1"},
		{"a", "token-bucket", Params{"x": 1}, "unknown parameter"},
		{"a", "quota", Params{"tenants": 0}, "tenants must be >= 1"},
		{"a", "quota", Params{"jobs": 0}, "jobs must be >= 1"},
		{"a", "quota", Params{"window_s": 0}, "window_s must be > 0"},
		{"a", "quota", Params{"x": 1}, "unknown parameter"},
		{"r", "round-robin", Params{"x": 1}, "unknown parameter"},
		{"r", "least-loaded", Params{"x": 1}, "unknown parameter"},
		{"r", "weighted", Params{"x": 1}, "unknown parameter"},
	}
	for _, c := range cases {
		var err error
		if c.kind == "a" {
			_, err = NewAdmission(c.name, c.p)
		} else {
			_, err = NewRouter(c.name, c.p)
		}
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s %v: err = %v, want containing %q", c.name, c.p, err, c.frag)
		}
	}
}
