package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestParseFormat is the one grammar table: accepted forms with their
// decoded (name, params) and canonical rendering, and every rejection
// with the error fragment the caller's pkg/noun must appear in.
func TestParseFormat(t *testing.T) {
	good := []struct {
		in     string
		name   string
		params Params
		canon  string
	}{
		{"always", "always", nil, "always"},
		{"  weighted  ", "weighted", nil, "weighted"},
		{"token-bucket()", "token-bucket", Params{}, "token-bucket"},
		{"token-bucket(rate=0.5,burst=3)", "token-bucket", Params{"rate": 0.5, "burst": 3}, "token-bucket(burst=3,rate=0.5)"},
		{"quota( tenants = 2 , jobs = 8 )", "quota", Params{"tenants": 2, "jobs": 8}, "quota(jobs=8,tenants=2)"},
		{"downey(A=24,sigma=0.5)", "downey", Params{"A": 24, "sigma": 0.5}, "downey(A=24,sigma=0.5)"},
		{"x(a=1e-09,b=1.23456789123456e+08)", "x", Params{"a": 1e-9, "b": 123456789.123456}, "x(a=1e-09,b=1.23456789123456e+08)"},
	}
	for _, c := range good {
		name, params, err := Parse("pkg", "thing", c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if name != c.name || !reflect.DeepEqual(params, c.params) {
			t.Errorf("Parse(%q) = %q, %v; want %q, %v", c.in, name, params, c.name, c.params)
		}
		if got := Format(name, params); got != c.canon {
			t.Errorf("Format(Parse(%q)) = %q, want %q", c.in, got, c.canon)
		}
	}
	bad := []struct{ in, frag string }{
		{"", "pkg: empty thing spec"},
		{"  ", "pkg: empty thing spec"},
		{"a(", "pkg: thing spec \"a(\": missing ')'"},
		{"a(b=1", "missing ')'"},
		{"(b=1)", "has no name"},
		{"a(b)", "parameter \"b\" is not key=value"},
		{"a(=1)", "bad parameter"},
		{"a(b=)", "bad parameter"},
		{"a(b=x)", "bad parameter"},
		{"a(b=NaN)", "bad parameter"},
		{"a(b=Inf)", "bad parameter"},
		{"a(b=+Inf)", "bad parameter"},
		{"a(b=-Inf)", "bad parameter"},
	}
	for _, c := range bad {
		if _, _, err := Parse("pkg", "thing", c.in); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.in, err, c.frag)
		}
	}
}

// FuzzSpecParse: Parse never panics, never lets a non-finite value
// through, and Format(Parse(x)) is a fixed point that parses back to the
// identical (name, params).
func FuzzSpecParse(f *testing.F) {
	for _, seed := range []string{
		"", "always", "token-bucket(rate=0.5,burst=3)", "a(b=NaN)", "a(b=+Inf)",
		"a(b=1", "(x=1)", "a(=1)", "a( b = 1e-9 )", "a(b=1,b=2)", "a()", "a(b=1)(c=2)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		name, params, err := Parse("pkg", "thing", in)
		if err != nil {
			return
		}
		for k, v := range params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) let %s=%v through", in, k, v)
			}
		}
		canon := Format(name, params)
		name2, params2, err := Parse("pkg", "thing", canon)
		if err != nil || name2 != name || len(params2) != len(params) {
			t.Fatalf("label %q of %q parsed back to %q, %v, %v", canon, in, name2, params2, err)
		}
		if got := Format(name2, params2); got != canon {
			t.Fatalf("Format not a fixed point: %q -> %q -> %q", in, canon, got)
		}
	})
}

func TestParamsFloatAndCheck(t *testing.T) {
	p := Params{"a": 2}
	if p.Float("a", 9) != 2 || p.Float("b", 9) != 9 || Params(nil).Float("a", 9) != 9 {
		t.Fatal("Float default handling")
	}
	if err := p.Check("pkg", "pol", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := Params(nil).Check("pkg", "pol"); err != nil {
		t.Fatal(err)
	}
	if err := p.Check("pkg", "pol", "b", "c"); err == nil ||
		err.Error() != `pkg: pol: unknown parameter "a" (valid: b, c)` {
		t.Fatalf("Check error = %v", err)
	}
	if err := p.Check("pkg", "pol"); err == nil || !strings.Contains(err.Error(), "(valid: none)") {
		t.Fatalf("Check with no allowed keys = %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry[int]("pkg", "thing")
	r.Register("Beta", func(p Params) (int, error) { return int(p.Float("v", 2)), nil })
	r.Register("alpha", func(Params) (int, error) { return 1, nil })
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Names() = %v", got)
	}
	if v, err := r.New("BETA", Params{"v": 7}); err != nil || v != 7 {
		t.Fatalf("New(BETA) = %v, %v", v, err)
	}
	if _, err := r.New("nope", nil); err == nil ||
		err.Error() != `pkg: unknown thing "nope" (valid: alpha, beta)` {
		t.Fatalf("unknown-name error = %v", err)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", what)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { r.Register("ALPHA", func(Params) (int, error) { return 0, nil }) })
	mustPanic("empty name", func() { r.Register("", func(Params) (int, error) { return 0, nil }) })
	mustPanic("nil factory", func() { r.Register("gamma", nil) })
}
