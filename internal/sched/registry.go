package sched

import "dpsim/internal/spec"

// Params carries a policy's construction parameters, as decoded from a
// scenario file's scheduler block or a CLI "name(key=value,...)" spec.
// All values are float64; factories round where an integer is meant.
type Params = spec.Params

// Factory constructs a policy instance from its parameters. It must
// reject unknown or out-of-range parameters.
type Factory func(p Params) (Scheduler, error)

var registry = spec.NewRegistry[Scheduler]("sched", "scheduler")

// Register adds a policy factory under its canonical (lower-case) name.
// Built-in policies self-register from init functions; registering a
// duplicate or empty name panics — it is a programming error.
func Register(name string, f Factory) { registry.Register(name, f) }

// Names lists the registered policy names in canonical (alphabetical)
// order — the valid values for scenario files and CLI flags.
func Names() []string { return registry.Names() }

// New constructs the named policy with the given parameters,
// case-insensitively. Policies may hold per-run state, so every
// simulation should construct its own instance.
func New(name string, p Params) (Scheduler, error) { return registry.New(name, p) }

// ByName resolves a policy with default parameters (the form used by
// scenario files and CLI flags that pass a bare name).
func ByName(name string) (Scheduler, bool) {
	s, err := New(name, nil)
	if err != nil {
		return nil, false
	}
	return s, true
}

// ParseSpec splits a CLI/label scheduler spec into name and parameters:
// either a bare "name" or "name(key=value,key2=value2)". It is the
// inverse of FormatSpec.
func ParseSpec(s string) (string, Params, error) { return spec.Parse("sched", "scheduler", s) }

// FormatSpec renders a (name, params) pair as the canonical spec string:
// the bare name, or "name(key=value,...)" with keys sorted. %g float
// rendering round-trips exactly through ParseSpec, so a grid label built
// with FormatSpec resolves back to the identical policy.
func FormatSpec(name string, p Params) string { return spec.Format(name, p) }
