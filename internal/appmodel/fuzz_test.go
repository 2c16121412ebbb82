package appmodel

import (
	"math"
	"testing"
)

// modelKeys lists each registered model's own parameters, the ones
// FuzzModelContract sets.
var modelKeys = map[string][]string{
	"amdahl":     {"f"},
	"comm-bound": {"alpha", "beta"},
	"downey":     {"A", "sigma"},
	"fixed":      nil,
	"lu":         {"blocks", "k"},
	"roofline":   {"sat"},
	"stencil":    {"grid_n", "flops"},
	"synthetic":  {"comm"},
}

// FuzzModelContract decodes each input into a registered model and its
// parameters — pick selects the name (low three bits) and which of its
// parameters take x and y (the next two bits; the rest keep their
// defaults) — and checks the AppModel contract on every model New
// accepts: Rate and Efficiency are 0 without nodes, Rate is finite and
// non-negative with them, and Efficiency is Rate/nodes to within 1e-12
// relative. A non-finite parameter must make New fail (Params.Check
// rejects it); a non-finite or negative work is skipped.
func FuzzModelContract(f *testing.F) {
	for _, name := range Names() {
		if _, ok := modelKeys[name]; !ok {
			f.Fatalf("model %q has no entry in modelKeys", name)
		}
	}
	f.Add(uint8(8), math.NaN(), 0.0, 1.0, int16(4)) // amdahl(f=NaN)
	f.Fuzz(func(t *testing.T, pick uint8, x, y, work float64, nodes int16) {
		if math.IsNaN(work) || math.IsInf(work, 0) || work < 0 {
			return
		}
		names := Names()
		name := names[int(pick)%len(names)]
		p, vals := Params{}, [2]float64{x, y}
		for i, key := range modelKeys[name] {
			if pick>>(3+i)&1 != 0 {
				p[key] = vals[i]
			}
		}
		m, err := New(name, p)
		spec, n := FormatSpec(name, p), int(nodes)
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if err == nil {
					t.Fatalf("New(%s) accepted a non-finite parameter", spec)
				}
				return
			}
		}
		if err != nil {
			return
		}
		r, e := m.Rate(work, n), m.Efficiency(work, n)
		if n <= 0 {
			if r != 0 || e != 0 {
				t.Fatalf("%s at %d nodes: Rate %g, Efficiency %g; want 0", spec, n, r, e)
			}
			return
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("%s: Rate(%g, %d) = %g, want finite and >= 0", spec, work, n, r)
		}
		if want := r / float64(n); math.Abs(e-want) > 1e-12*math.Abs(want) {
			t.Fatalf("%s: Efficiency(%g, %d) = %g, want Rate/n = %g", spec, work, n, e, want)
		}
	})
}
