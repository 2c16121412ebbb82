// Package federation is the multi-cluster tier over the single-cluster
// simulator (internal/cluster): an orchestrator advances N heterogeneous
// cluster.Sim instances on one shared virtual clock using the step
// primitives (PeekNextEventTime / ProcessNextEvent / Inject), and
// dispatches an open arrival stream through pluggable admission policies
// (may this job enter the federation at all?) and routing policies
// (which member cluster runs it?).
//
// Both policy families are instantiations of the shared spec kernel
// (internal/spec), like internal/sched and internal/appmodel:
// self-registering, case-insensitive registries whose policies are
// selected by "name" or "name(key=value,...)" specs (ParseSpec /
// FormatSpec), construction rejects unknown names and parameters, and
// every simulation constructs fresh instances because policies may hold
// per-run state.
//
// The shared-clock contract: the orchestrator always processes the
// globally earliest pending event (ties broken by member index), so
// every member's local clock stays at or behind the federation clock,
// injections at the arrival frontier are always legal for the routed
// member, and the whole composition is bit-deterministic — same seed,
// same trajectory, regardless of how many clusters federate. The
// CheckInvariants property harness (invariants.go) certifies exactly
// these guarantees for every registered admission×routing pair.
//
// See docs/federation.md for the scenario schema and policy reference.
package federation

import "dpsim/internal/spec"

// Params carries a policy's construction parameters, as decoded from a
// scenario file's federation block or a CLI "name(key=value,...)" spec.
// All values are float64; factories round where an integer is meant.
type Params = spec.Params

var (
	admissions = spec.NewRegistry[Admission]("federation", "admission policy")
	routers    = spec.NewRegistry[Router]("federation", "router policy")
)

// AdmissionFactory constructs an admission policy from its parameters.
// It must reject unknown or out-of-range parameters.
type AdmissionFactory func(p Params) (Admission, error)

// RouterFactory constructs a routing policy from its parameters.
type RouterFactory func(p Params) (Router, error)

// RegisterAdmission adds an admission-policy factory under its canonical
// (lower-case) name. Built-in policies self-register from init
// functions; registering a duplicate or empty name panics — it is a
// programming error.
func RegisterAdmission(name string, f AdmissionFactory) { admissions.Register(name, f) }

// RegisterRouter adds a routing-policy factory under its canonical
// (lower-case) name, with RegisterAdmission's rules.
func RegisterRouter(name string, f RouterFactory) { routers.Register(name, f) }

// AdmissionNames lists the registered admission policies in canonical
// (alphabetical) order — the valid values for scenario files and CLI
// flags.
func AdmissionNames() []string { return admissions.Names() }

// RouterNames lists the registered routing policies in canonical order.
func RouterNames() []string { return routers.Names() }

// NewAdmission constructs the named admission policy with the given
// parameters, case-insensitively. Policies may hold per-run state, so
// every simulation should construct its own instance.
func NewAdmission(name string, p Params) (Admission, error) { return admissions.New(name, p) }

// NewRouter constructs the named routing policy, with NewAdmission's
// rules.
func NewRouter(name string, p Params) (Router, error) { return routers.New(name, p) }

// ParseSpec splits a CLI/label policy spec into name and parameters:
// either a bare "name" or "name(key=value,key2=value2)". The grammar is
// shared by both policy families; NewAdmission / NewRouter resolve the
// name. It is the inverse of FormatSpec.
func ParseSpec(s string) (string, Params, error) { return spec.Parse("federation", "policy", s) }

// FormatSpec renders a (name, params) pair as the canonical spec string:
// the bare name, or "name(key=value,...)" with keys sorted. %g float
// rendering round-trips exactly through ParseSpec, so a grid label built
// with FormatSpec resolves back to the identical policy.
func FormatSpec(name string, p Params) string { return spec.Format(name, p) }
