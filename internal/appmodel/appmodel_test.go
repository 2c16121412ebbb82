package appmodel

import (
	"math"
	"testing"
)

// TestModelContracts checks the AppModel consistency laws every
// registered model must obey at default parameters: serial execution is
// the baseline (rate 1 at one node), the two views agree
// (Efficiency = Rate/n), speedup never exceeds the allocation, and a
// non-positive allocation makes no progress.
func TestModelContracts(t *testing.T) {
	const work = 120.0
	for _, name := range Names() {
		m, err := New(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("%s: Name() = %q", name, m.Name())
		}
		if r := m.Rate(work, 1); math.Abs(r-1) > 1e-12 {
			t.Errorf("%s: Rate(work, 1) = %g, want 1", name, r)
		}
		if r := m.Rate(work, 0); r != 0 {
			t.Errorf("%s: Rate(work, 0) = %g, want 0", name, r)
		}
		if e := m.Efficiency(work, 0); e != 0 {
			t.Errorf("%s: Efficiency(work, 0) = %g, want 0", name, e)
		}
		for n := 1; n <= 64; n *= 2 {
			rate := m.Rate(work, n)
			if rate <= 0 || rate > float64(n)+1e-12 {
				t.Errorf("%s: Rate(work, %d) = %g outside (0, n]", name, n, rate)
			}
			if e := m.Efficiency(work, n); math.Abs(e-rate/float64(n)) > 1e-12 {
				t.Errorf("%s: Efficiency(work, %d) = %g, want Rate/n = %g", name, n, e, rate/float64(n))
			}
		}
	}
}

// TestModelShapes pins the distinguishing behavior of each analytical
// family: where the curve bends is the whole point of having four.
func TestModelShapes(t *testing.T) {
	amdahl, err := New("amdahl", Params{"f": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Amdahl's asymptote is 1/f: speedup at huge n approaches 10.
	if s := amdahl.Rate(1, 100000); math.Abs(s-1/0.1) > 0.1 {
		t.Errorf("amdahl(f=0.1) asymptote = %g, want ~10", s)
	}

	downey, err := New("downey", Params{"A": 8, "sigma": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Downey plateaus at the average parallelism A beyond 2A-1 nodes.
	if s := downey.Rate(1, 64); s != 8 {
		t.Errorf("downey(A=8) plateau = %g, want 8", s)
	}
	if s := downey.Rate(1, 2*8-1); math.Abs(s-8) > 1e-9 {
		t.Errorf("downey(A=8, sigma=0.5) at 2A-1 = %g, want 8", s)
	}
	// High-variance branch: still 1 at one node, A at the plateau.
	hv, err := New("downey", Params{"A": 8, "sigma": 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := hv.Rate(1, 64); s != 8 {
		t.Errorf("downey(sigma=3) plateau = %g, want 8", s)
	}
	// σ > 1 saturates earlier relative to its low-variance sibling at
	// mid-range allocations.
	if hv.Rate(1, 6) >= downey.Rate(1, 6) {
		t.Errorf("downey sigma=3 (%g) not below sigma=0.5 (%g) at n=6",
			hv.Rate(1, 6), downey.Rate(1, 6))
	}

	roofline, err := New("roofline", Params{"sat": 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := roofline.Rate(1, 3); s != 3 {
		t.Errorf("roofline below knee = %g, want 3", s)
	}
	if s := roofline.Rate(1, 32); s != 4 {
		t.Errorf("roofline past knee = %g, want 4", s)
	}

	fixed, err := New("fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := fixed.Rate(1, 32); s != 1 {
		t.Errorf("fixed speedup = %g, want 1", s)
	}

	cb, err := New("comm-bound", Params{"alpha": 0.5, "beta": 2})
	if err != nil {
		t.Fatal(err)
	}
	// time(w, n) = w/n + α + β/n for n > 1, so the rate is w/time.
	if r := cb.Rate(100, 4); math.Abs(r-100/(100.0/4+0.5+2.0/4)) > 1e-12 {
		t.Errorf("comm-bound rate = %g", r)
	}
	if r := cb.Rate(100, 1); r != 1 {
		t.Errorf("comm-bound serial rate = %g, want 1", r)
	}
	// A latency-dominated phase can lose from parallelism: that is the
	// behavior the model exists to exhibit.
	lat, err := New("comm-bound", Params{"alpha": 50, "beta": 0})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Rate(10, 2) >= lat.Rate(10, 1) {
		t.Error("latency-bound phase should slow down on 2 nodes")
	}
}

// TestCommFactorMatchesLegacyFormula: the comm-factor family must
// reproduce the historical Phase formula expression-for-expression —
// this is what makes attaching the registered lu/synthetic/stencil
// models bit-invisible to golden results.
func TestCommFactorMatchesLegacyFormula(t *testing.T) {
	for _, c := range []float64{0, 0.02, 0.08 + 0.25/3, 0.5} {
		m := Comm("synthetic", c)
		for p := 1; p <= 33; p++ {
			eff := 1 / (1 + c*float64(p-1))
			if got := m.Efficiency(7, p); got != eff {
				t.Fatalf("c=%g p=%d: Efficiency = %g, want %g (bitwise)", c, p, got, eff)
			}
			if got, want := m.Rate(7, p), float64(p)*eff; got != want {
				t.Fatalf("c=%g p=%d: Rate = %g, want %g (bitwise)", c, p, got, want)
			}
		}
	}
}

// TestAliasesAreTheirFamilies: amdahl is the comm-factor curve with
// C = f, and fixed is roofline with sat = 1, bit for bit against the
// closed forms they used to state on their own (speedup n/(1+f·(n-1)),
// and speedup 1 with efficiency 1/n).
func TestAliasesAreTheirFamilies(t *testing.T) {
	amdahl, err := New("amdahl", Params{"f": 0.3, "migrate_s": 2})
	if err != nil {
		t.Fatal(err)
	}
	if cf, ok := amdahl.(CommFactor); !ok || cf.C != 0.3 || cf.MigrateS != 2 {
		t.Fatalf("amdahl(f=0.3) = %#v, want the comm-factor curve with C = 0.3", amdahl)
	}
	fixed, err := New("fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rl, ok := fixed.(Roofline); !ok || rl.Sat != 1 || fixed.Name() != "fixed" {
		t.Fatalf("fixed = %#v, want roofline with sat = 1", fixed)
	}
	if name := (Roofline{Sat: 4}).Name(); name != "roofline" {
		t.Errorf("Roofline{Sat: 4}.Name() = %q, want roofline", name)
	}
	for p := 1; p <= 33; p++ {
		eff := 1 / (1 + 0.3*float64(p-1))
		if got := amdahl.Efficiency(7, p); got != eff {
			t.Fatalf("amdahl p=%d: Efficiency = %g, want %g (bitwise)", p, got, eff)
		}
		if got, want := amdahl.Rate(7, p), float64(p)*eff; got != want {
			t.Fatalf("amdahl p=%d: Rate = %g, want %g (bitwise)", p, got, want)
		}
		if got := fixed.Rate(7, p); got != 1 {
			t.Fatalf("fixed p=%d: Rate = %g, want 1", p, got)
		}
		if got, want := fixed.Efficiency(7, p), 1/float64(p); got != want {
			t.Fatalf("fixed p=%d: Efficiency = %g, want %g (bitwise)", p, got, want)
		}
	}
}

// TestRegistryCommFamilies: the registered lu/synthetic/stencil
// factories must produce the same curves as the direct constructors the
// scenario layer uses.
func TestRegistryCommFamilies(t *testing.T) {
	lu, err := New("lu", Params{"blocks": 8, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := LUPhase(8, 3); lu.(CommFactor).C != want.C {
		t.Errorf("registry lu C = %g, want %g", lu.(CommFactor).C, want.C)
	}
	st, err := New("stencil", Params{"grid_n": 648})
	if err != nil {
		t.Fatal(err)
	}
	if want := StencilComm(648, 0); st.(CommFactor).C != want {
		t.Errorf("registry stencil C = %g, want %g", st.(CommFactor).C, want)
	}
	syn, err := New("synthetic", Params{"comm": 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if syn.(CommFactor).C != 0.04 {
		t.Errorf("registry synthetic C = %g", syn.(CommFactor).C)
	}
}

// TestReconfigurerHooks: every registered model prices migration and
// checkpoint loss through AppModel's own cost methods, set by the shared
// Costs parameters and defaulting to free.
func TestReconfigurerHooks(t *testing.T) {
	for _, name := range Names() {
		free, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if free.MigrationS() != 0 || free.CheckpointLossS() != 0 {
			t.Errorf("%s: default costs not free", name)
		}
		priced, err := New(name, Params{"migrate_s": 1.5, "ckpt_s": 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if priced.MigrationS() != 1.5 || priced.CheckpointLossS() != 3 {
			t.Errorf("%s: costs not plumbed: migrate=%g ckpt=%g",
				name, priced.MigrationS(), priced.CheckpointLossS())
		}
	}
}

// TestFactoryRejectsBadParams: misspelled or out-of-range parameters
// must fail at construction.
func TestFactoryRejectsBadParams(t *testing.T) {
	bad := []struct {
		name string
		p    Params
	}{
		{"amdahl", Params{"serial": 0.1}},
		{"amdahl", Params{"f": 1.5}},
		{"amdahl", Params{"f": -0.1}},
		{"downey", Params{"A": 0.5}},
		{"downey", Params{"sigma": -1}},
		{"downey", Params{"A": 1e308}},
		{"downey", Params{"sigma": 1e305}},
		{"comm-bound", Params{"alpha": -1}},
		{"roofline", Params{"sat": 0}},
		{"fixed", Params{"nodes": 4}},
		{"lu", Params{"blocks": 4, "k": 4}},
		{"synthetic", Params{"comm": -0.1}},
		{"stencil", Params{"grid_n": 0}},
		{"fixed", Params{"migrate_s": -1}},
		{"fixed", Params{"ckpt_s": -1}},
	}
	for _, tc := range bad {
		if _, err := New(tc.name, tc.p); err == nil {
			t.Errorf("%s%v: bad params accepted", tc.name, tc.p)
		}
	}
}
