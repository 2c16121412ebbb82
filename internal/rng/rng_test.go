package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling forks produced identical first outputs")
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(9).Fork()
	b := New(9).Fork()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("forks of identical parents diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d of 7 values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniform(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) out of range: %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestLogNormalUnitMean(t *testing.T) {
	s := New(19)
	for _, cv := range []float64{0.01, 0.05, 0.2} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += s.LogNormal(cv)
		}
		mean := sum / n
		if math.Abs(mean-1) > 0.02 {
			t.Fatalf("LogNormal(cv=%v) mean %v too far from 1", cv, mean)
		}
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	s := New(23)
	for i := 0; i < 10; i++ {
		if v := s.LogNormal(0); v != 1 {
			t.Fatalf("LogNormal(0) = %v, want exactly 1", v)
		}
	}
}

// refLogNormal is LogNormal as it was written before NewLogNormal, with
// its parameters derived from cv on every draw.
func refLogNormal(s *Source, cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := -sigma2 / 2
	return math.Exp(mu + math.Sqrt(sigma2)*s.Norm())
}

// TestNewLogNormalBitIdentical: a prepared law draws the very bits that
// LogNormal and the per-draw formula do, and consumes the same stream.
func TestNewLogNormalBitIdentical(t *testing.T) {
	for _, cv := range []float64{-1, 0, 0.025, 0.03, 0.04, 0.6, 3} {
		d := NewLogNormal(cv)
		prepared, direct, ref := New(31), New(31), New(31)
		for i := 0; i < 10_000; i++ {
			a, b, c := d.Draw(prepared), direct.LogNormal(cv), refLogNormal(ref, cv)
			if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(a) != math.Float64bits(c) {
				t.Fatalf("cv %v, draw %d: Draw %v, LogNormal %v, reference %v", cv, i, a, b, c)
			}
		}
		if *prepared != *direct || *prepared != *ref {
			t.Fatalf("cv %v: source states diverged: %v, %v, %v", cv, *prepared, *direct, *ref)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(29)
	for i := 0; i < 100000; i++ {
		if v := s.LogNormal(0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(31)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(2.5)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp(2.5) mean %v too far from 2.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64Property(t *testing.T) {
	// Property: the same seed always yields the same first output, and
	// consecutive outputs are not all identical (stream advances).
	prop := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		x1, x2, x3 := a.Uint64(), a.Uint64(), a.Uint64()
		y1 := b.Uint64()
		return x1 == y1 && !(x1 == x2 && x2 == x3)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkLogNormal(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.LogNormal(0.03)
	}
	_ = sink
}
