package appmodel

import (
	"strings"
	"testing"
)

// TestNamesListsBuiltins: the registry must expose the eight built-in
// names — four curves, with amdahl and the three classic mix shapes on
// the comm-factor curve and fixed on the roofline.
func TestNamesListsBuiltins(t *testing.T) {
	want := []string{"amdahl", "comm-bound", "downey", "fixed", "lu", "roofline", "stencil", "synthetic"}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestNewCaseInsensitive mirrors the sched registry contract.
func TestNewCaseInsensitive(t *testing.T) {
	m, err := New("AmDaHl", Params{"f": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "amdahl" {
		t.Fatalf("Name = %q", m.Name())
	}
	if _, err := New("no-such-model", nil); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown model error = %v", err)
	}
	if _, ok := ByName("ROOFLINE"); !ok {
		t.Fatal("ByName not case-insensitive")
	}
}

// TestParseFormatSpecRoundTrip: FormatSpec output must resolve back to
// the identical model through ParseSpec, the property grid labels rely
// on.
func TestParseFormatSpecRoundTrip(t *testing.T) {
	specs := []string{
		"fixed",
		"amdahl(f=0.125)",
		"downey(A=24,sigma=0.5)",
		"comm-bound(alpha=0.1,beta=2.5,migrate_s=0.75)",
		"roofline(ckpt_s=2,sat=8)",
	}
	for _, spec := range specs {
		name, params, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := FormatSpec(name, params); got != spec {
			t.Errorf("round-trip %q -> %q", spec, got)
		}
		if _, err := New(name, params); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

// TestParseSpecRejectsMalformed: parse errors are loud, early and carry
// the package's own wording (internal/spec.TestParseFormat is the
// grammar table).
func TestParseSpecRejectsMalformed(t *testing.T) {
	if _, _, err := ParseSpec("amdahl(f=NaN)"); err == nil ||
		!strings.HasPrefix(err.Error(), `appmodel: model spec "amdahl(f=NaN)": bad parameter`) {
		t.Errorf("non-finite parameter error = %v", err)
	}
	if _, err := New("no-such-model", nil); err == nil ||
		!strings.HasPrefix(err.Error(), `appmodel: unknown model "no-such-model"`) {
		t.Errorf("unknown-name error = %v", err)
	}
	if _, err := New("amdahl", Params{"g": 1}); err == nil ||
		err.Error() != `appmodel: amdahl: unknown parameter "g" (valid: f, migrate_s, ckpt_s)` {
		t.Errorf("unknown-parameter error = %v", err)
	}
}

// TestRegisterPanics: duplicate or empty registrations are programming
// errors.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f Factory) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(name, f)
	}
	mustPanic("", newFixed)
	mustPanic("nilfactory", nil)
	mustPanic("FIXED", newFixed) // case-insensitive duplicate
}
