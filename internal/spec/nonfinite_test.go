package spec_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dpsim/internal/appmodel"
	"dpsim/internal/federation"
	"dpsim/internal/sched"
)

// TestFactoriesRejectNonFinite: every family's factory rejects a NaN or
// infinite parameter through Params.Check, naming the package, the policy
// and the key. A spec string never carries one (Parse rejects it), but a
// Params map built in Go does, and NaN passes every range check a factory
// writes (v < 0 is false for NaN).
func TestFactoriesRejectNonFinite(t *testing.T) {
	type family struct {
		pkg   string
		build func(name string, p map[string]float64) error
	}
	families := map[string]family{
		"appmodel": {"appmodel", func(name string, p map[string]float64) error {
			_, err := appmodel.New(name, p)
			return err
		}},
		"sched": {"sched", func(name string, p map[string]float64) error {
			_, err := sched.New(name, p)
			return err
		}},
		"admission": {"federation", func(name string, p map[string]float64) error {
			_, err := federation.NewAdmission(name, p)
			return err
		}},
		"routing": {"federation", func(name string, p map[string]float64) error {
			_, err := federation.NewRouter(name, p)
			return err
		}},
	}
	type param struct{ family, policy, key string }
	cases := []param{
		{"appmodel", "amdahl", "f"},
		{"appmodel", "synthetic", "comm"},
		{"appmodel", "downey", "A"},
		{"appmodel", "downey", "sigma"},
		{"appmodel", "comm-bound", "alpha"},
		{"appmodel", "comm-bound", "beta"},
		{"appmodel", "roofline", "sat"},
		{"appmodel", "lu", "blocks"},
		{"appmodel", "lu", "k"},
		{"appmodel", "stencil", "grid_n"},
		{"appmodel", "stencil", "flops"},
		{"sched", "malleable-hysteresis", "epoch_s"},
		{"sched", "malleable-hysteresis", "min_delta"},
		{"sched", "moldable", "min_efficiency"},
		{"sched", "sjf-moldable", "min_efficiency"},
		{"admission", "token-bucket", "rate"},
		{"admission", "token-bucket", "burst"},
		{"admission", "quota", "tenants"},
		{"admission", "quota", "jobs"},
		{"admission", "quota", "window_s"},
		{"routing", "weighted", "free"},
		{"routing", "weighted", "queue"},
	}
	for _, name := range appmodel.Names() {
		cases = append(cases, param{"appmodel", name, "migrate_s"}, param{"appmodel", name, "ckpt_s"})
	}
	for _, c := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := families[c.family]
			err := f.build(c.policy, map[string]float64{c.key: v})
			want := fmt.Sprintf("%s: %s: parameter %q is %g, not a finite number", f.pkg, c.policy, c.key, v)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s(%s=%g): error %v, want %q", c.family, c.policy, c.key, v, err, want)
			}
		}
	}
}
