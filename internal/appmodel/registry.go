package appmodel

import "dpsim/internal/spec"

// Params carries a model's construction parameters, as decoded from a
// scenario file's appmodels block or a CLI "name(key=value,...)" spec.
// All values are float64; factories round where an integer is meant.
type Params = spec.Params

// Factory constructs a model instance from its parameters. It must
// reject unknown or out-of-range parameters.
type Factory func(p Params) (AppModel, error)

var registry = spec.NewRegistry[AppModel]("appmodel", "model")

// Register adds a model factory under its canonical (lower-case) name.
// Built-in models self-register from init functions; registering a
// duplicate or empty name panics — it is a programming error.
func Register(name string, f Factory) { registry.Register(name, f) }

// Names lists the registered model names in canonical (alphabetical)
// order — the valid values for scenario files and CLI flags (plus the
// scenario-level sentinel "mix", which selects each mix component's
// native model and is not itself registered here).
func Names() []string { return registry.Names() }

// New constructs the named model with the given parameters,
// case-insensitively. Models are immutable, but constructing per use is
// cheap and keeps the API parallel to sched.New.
func New(name string, p Params) (AppModel, error) { return registry.New(name, p) }

// ByName resolves a model with default parameters (the form used by
// scenario files and CLI flags that pass a bare name).
func ByName(name string) (AppModel, bool) {
	m, err := New(name, nil)
	if err != nil {
		return nil, false
	}
	return m, true
}

// ParseSpec splits a CLI/label model spec into name and parameters:
// either a bare "name" or "name(key=value,key2=value2)". It is the
// inverse of FormatSpec.
func ParseSpec(s string) (string, Params, error) { return spec.Parse("appmodel", "model", s) }

// FormatSpec renders a (name, params) pair as the canonical spec string:
// the bare name, or "name(key=value,...)" with keys sorted. %g float
// rendering round-trips exactly through ParseSpec, so a grid label built
// with FormatSpec resolves back to the identical model.
func FormatSpec(name string, p Params) string { return spec.Format(name, p) }
