package federation

import (
	"fmt"
	"math"

	"dpsim/internal/cluster"
)

// Admission decides whether an arriving job may enter the federation at
// all. Admit is called once per offered job, in arrival order, with the
// job's arrival time in seconds; policies may keep state across calls
// (rate limiters, quotas) but must be deterministic functions of the
// offer sequence — no wall clock, no randomness — so that same-seed
// federated runs stay bit-identical.
type Admission interface {
	// Name reports the canonical registry name.
	Name() string
	// Admit returns true to let the job proceed to routing, false to
	// reject it. now is the job's arrival time in seconds (the offer
	// sequence is non-decreasing in now).
	Admit(now float64, j *cluster.Job) bool
}

func init() {
	RegisterAdmission("always", newAlwaysAdmit)
	RegisterAdmission("token-bucket", newTokenBucket)
	RegisterAdmission("quota", newQuota)
}

// alwaysAdmit is the identity admission policy: every offered job enters
// the federation. It is the default, and the policy under which a
// 1-cluster federation is byte-identical to the plain cluster path.
type alwaysAdmit struct{}

func newAlwaysAdmit(p Params) (Admission, error) {
	if err := p.Check("federation", "always"); err != nil {
		return nil, err
	}
	return alwaysAdmit{}, nil
}

func (alwaysAdmit) Name() string                           { return "always" }
func (alwaysAdmit) Admit(now float64, j *cluster.Job) bool { return true }

// tokenBucket admits at a sustained rate with bounded burst: a bucket
// holding at most burst tokens refills at rate tokens per simulated
// second, and each admission spends one token. Refill is computed from
// the virtual-time gap between offers, so the policy is a pure function
// of the arrival sequence.
//
// Parameters: rate (tokens/s, default 1, > 0), burst (bucket capacity,
// default 1, ≥ 1).
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
}

func newTokenBucket(p Params) (Admission, error) {
	if err := p.Check("federation", "token-bucket", "rate", "burst"); err != nil {
		return nil, err
	}
	rate := p.Float("rate", 1)
	burst := p.Float("burst", 1)
	if rate <= 0 {
		return nil, fmt.Errorf("federation: token-bucket: rate must be > 0 (got %g)", rate)
	}
	if burst < 1 {
		return nil, fmt.Errorf("federation: token-bucket: burst must be >= 1 (got %g)", burst)
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

func (b *tokenBucket) Name() string { return "token-bucket" }

func (b *tokenBucket) Admit(now float64, j *cluster.Job) bool {
	if now > b.last {
		b.tokens = math.Min(b.burst, b.tokens+(now-b.last)*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// quota caps each tenant at a fixed number of jobs per fixed window of
// simulated time. Jobs carry no tenant field, so the tenant is derived
// deterministically as ID mod tenants — a stand-in for a real tenant
// tag that keeps multi-tenant pressure reproducible.
//
// Parameters: tenants (number of tenants, default 4, ≥ 1), jobs (max
// admissions per tenant per window, default 16, ≥ 1), window_s (window
// length in seconds, default 3600, > 0).
type quota struct {
	tenants int
	jobs    int
	windowS float64
	state   []quotaState
}

type quotaState struct {
	win   int
	count int
}

func newQuota(p Params) (Admission, error) {
	if err := p.Check("federation", "quota", "tenants", "jobs", "window_s"); err != nil {
		return nil, err
	}
	tenants := int(math.Round(p.Float("tenants", 4)))
	jobs := int(math.Round(p.Float("jobs", 16)))
	windowS := p.Float("window_s", 3600)
	if tenants < 1 {
		return nil, fmt.Errorf("federation: quota: tenants must be >= 1 (got %g)", p.Float("tenants", 4))
	}
	if jobs < 1 {
		return nil, fmt.Errorf("federation: quota: jobs must be >= 1 (got %g)", p.Float("jobs", 16))
	}
	if windowS <= 0 {
		return nil, fmt.Errorf("federation: quota: window_s must be > 0 (got %g)", windowS)
	}
	return &quota{tenants: tenants, jobs: jobs, windowS: windowS, state: make([]quotaState, tenants)}, nil
}

func (q *quota) Name() string { return "quota" }

func (q *quota) Admit(now float64, j *cluster.Job) bool {
	t := &q.state[j.ID%q.tenants]
	// Window 0 covers [0, window_s); stored as win+1 so the zero value
	// of quotaState never collides with a real window index.
	w := int(now/q.windowS) + 1
	if w != t.win {
		t.win = w
		t.count = 0
	}
	if t.count < q.jobs {
		t.count++
		return true
	}
	return false
}
