// Package spec is the kernel every pluggable policy family shares:
// construction parameters (Params), the "name(key=value,...)" spec-string
// grammar (Parse / Format) and a self-registering, case-insensitive
// factory table (Registry). internal/sched, internal/appmodel and
// internal/federation instantiate it once per family and keep their own
// exported names and error nouns; nothing here knows what a policy is.
package spec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Params carries a policy's construction parameters, as decoded from a
// scenario file's {"name", "params"} block or a "name(key=value,...)"
// spec string. All values are float64; factories round where an integer
// is meant.
type Params map[string]float64

// Float returns the parameter's value, or def when the key is absent.
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Check rejects any key outside the allowed set — a misspelled parameter
// must fail loudly at construction, not silently fall back to a default —
// and any NaN or infinite value, which would slip through every range
// check a factory can write (v < 0 is false for NaN). pkg and policy
// prefix the error: "sched: rigid-fcfs: unknown ...".
func (p Params) Check(pkg, policy string, allowed ...string) error {
	for key, v := range p {
		if !slices.Contains(allowed, key) {
			valid := "none"
			if len(allowed) > 0 {
				valid = strings.Join(allowed, ", ")
			}
			return fmt.Errorf("%s: %s: unknown parameter %q (valid: %s)", pkg, policy, key, valid)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s: parameter %q is %g, not a finite number", pkg, policy, key, v)
		}
	}
	return nil
}

// Parse splits a spec string into name and parameters: either a bare
// "name" or "name(key=value,key2=value2)". It is the inverse of Format.
// pkg and noun word the errors: Parse("sched", "scheduler", "") fails
// with "sched: empty scheduler spec".
func Parse(pkg, noun, spec string) (string, Params, error) {
	spec = strings.TrimSpace(spec)
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		if spec == "" {
			return "", nil, fmt.Errorf("%s: empty %s spec", pkg, noun)
		}
		return spec, nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("%s: %s spec %q: missing ')'", pkg, noun, spec)
	}
	name := strings.TrimSpace(spec[:open])
	if name == "" {
		return "", nil, fmt.Errorf("%s: %s spec %q has no name", pkg, noun, spec)
	}
	body := spec[open+1 : len(spec)-1]
	params := Params{}
	if strings.TrimSpace(body) == "" {
		return name, params, nil
	}
	for _, kv := range strings.Split(body, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("%s: %s spec %q: parameter %q is not key=value", pkg, noun, spec, kv)
		}
		key := strings.TrimSpace(kv[:eq])
		val, err := strconv.ParseFloat(strings.TrimSpace(kv[eq+1:]), 64)
		// ParseFloat accepts "NaN"/"Inf", and NaN slips through every
		// range check a factory can write (v <= 0 is false) — reject
		// non-finite values at the parse boundary.
		if key == "" || err != nil || math.IsNaN(val) || math.IsInf(val, 0) {
			return "", nil, fmt.Errorf("%s: %s spec %q: bad parameter %q", pkg, noun, spec, kv)
		}
		params[key] = val
	}
	return name, params, nil
}

// Format renders a (name, params) pair as the canonical spec string: the
// bare name, or "name(key=value,...)" with keys sorted. %g float
// rendering round-trips exactly through Parse, so a grid label built
// with Format resolves back to the identical policy.
func Format(name string, p Params) string {
	if len(p) == 0 {
		return name
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, strconv.FormatFloat(p[k], 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Registry is one self-registering policy family: factories keyed by
// canonical (lower-case) name, resolved case-insensitively.
type Registry[T any] struct {
	pkg, noun string
	mu        sync.RWMutex
	m         map[string]func(Params) (T, error)
}

// NewRegistry returns an empty family. pkg and noun word its errors:
// NewRegistry[Scheduler]("sched", "scheduler") reports
// "sched: unknown scheduler ...".
func NewRegistry[T any](pkg, noun string) *Registry[T] {
	return &Registry[T]{pkg: pkg, noun: noun, m: make(map[string]func(Params) (T, error))}
}

// Register adds a factory under its canonical (lower-case) name.
// Built-in policies self-register from init functions; registering a
// duplicate or empty name panics — it is a programming error.
func (r *Registry[T]) Register(name string, f func(Params) (T, error)) {
	if name == "" || f == nil {
		panic(r.pkg + ": registering a " + r.noun + " with empty name or nil factory")
	}
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[key]; dup {
		panic(r.pkg + ": duplicate " + r.noun + " " + key)
	}
	r.m[key] = f
}

// Names lists the registered names in canonical (alphabetical) order —
// the valid values for scenario files and CLI flags.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs the named policy with the given parameters,
// case-insensitively. Policies may hold per-run state, so every
// simulation should construct its own instance.
func (r *Registry[T]) New(name string, p Params) (T, error) {
	r.mu.RLock()
	f, ok := r.m[strings.ToLower(name)]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: unknown %s %q (valid: %s)", r.pkg, r.noun, name, strings.Join(r.Names(), ", "))
	}
	return f(p)
}
