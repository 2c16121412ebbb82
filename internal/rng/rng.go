// Package rng provides a small, fast, deterministic pseudo-random number
// generator and the distributions used by the virtual cluster testbed.
//
// All randomness in the repository flows through this package so that a
// simulation seed fully determines a virtual timeline. The generator is
// splitmix64 (Steele, Lea, Flood 2014): a 64-bit state advanced by a Weyl
// sequence and finalized by a variant of the MurmurHash3 finalizer. It is
// not cryptographically secure; it is statistically solid, allocation-free
// and trivially seedable, which is what a reproducible simulator needs.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// The zero value is a valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent child stream from the current state without
// disturbing determinism: the child is seeded from the next output mixed
// with a fixed odd constant, so sibling forks are decorrelated.
func (s *Source) Fork() *Source {
	return &Source{state: s.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.Float64())
}

// Norm returns a standard normal deviate (Box–Muller, polar form avoided
// for determinism of consumed stream length: exactly two Uint64 per call).
func (s *Source) Norm() float64 {
	u1 := s.Float64()
	u2 := s.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a deviate with E[X] = 1 and the given coefficient of
// variation cv (standard deviation / mean). It models multiplicative
// execution-time noise: durations are scaled by a LogNormal sample.
// cv = 0 returns exactly 1. A caller drawing many deviates of one cv
// prepares the law once with NewLogNormal instead.
func (s *Source) LogNormal(cv float64) float64 {
	return NewLogNormal(cv).Draw(s)
}

// LogNormalDist is the law of LogNormal for one coefficient of variation,
// with its parameters computed once. The zero value is the constant 1.
type LogNormalDist struct {
	on        bool    // cv > 0: Draw consumes a normal deviate
	mu, sigma float64 // of the underlying normal
}

// NewLogNormal prepares the lognormal law with E[X] = 1 and coefficient of
// variation cv; cv <= 0 gives the constant 1.
func NewLogNormal(cv float64) LogNormalDist {
	if cv <= 0 {
		return LogNormalDist{}
	}
	sigma2 := math.Log(1 + float64(cv*cv))
	// mu = -sigma2/2, so that E[exp(N(mu, sigma2))] == 1.
	return LogNormalDist{on: true, mu: -sigma2 / 2, sigma: math.Sqrt(sigma2)}
}

// Draw returns one deviate of d from s. Unless d is the constant 1, it
// consumes one normal deviate (two Uint64) from s.
func (d LogNormalDist) Draw(s *Source) float64 {
	if !d.on {
		return 1
	}
	return math.Exp(d.mu + float64(d.sigma*s.Norm()))
}

// Exp returns an exponential deviate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Weibull returns a Weibull deviate with the given mean and shape k > 0.
// The scale is derived from the mean via λ = mean/Γ(1+1/k), so Weibull and
// Exp with equal means are directly comparable (k = 1 reduces to the
// exponential law). Weibull time-to-failure with k < 1 models infant
// mortality, k > 1 wear-out — the standard reliability laws for compute
// node failure processes.
func (s *Source) Weibull(mean, shape float64) float64 {
	if shape <= 0 {
		panic("rng: Weibull called with shape <= 0")
	}
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	scale := mean / math.Gamma(1+1/shape)
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
