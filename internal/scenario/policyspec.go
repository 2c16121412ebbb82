package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"dpsim/internal/appmodel"
	"dpsim/internal/federation"
	"dpsim/internal/sched"
	"dpsim/internal/spec"
)

// family is all that differs between the policy axes of a scenario —
// schedulers, appmodels, admissions, routings: what the axis is called
// in errors, which package words the parse errors and which registry
// resolves the name.
type family[T any] interface {
	// noun names one axis entry in scenario-level errors ("scheduler").
	noun() string
	// parse is the owning package's ParseSpec.
	parse(s string) (string, spec.Params, error)
	// resolve constructs the named policy and reports its canonical
	// (registered) name.
	resolve(name string, p spec.Params) (T, string, error)
}

// PolicySpec selects one policy of a grid axis: a registered name
// (case-insensitive) plus optional construction parameters. In scenario
// JSON an entry may be a bare string — a name or a full
// "name(key=value,...)" spec — or a {"name": ..., "params": {...}}
// object. SchedulerSpec, AppModelSpec, AdmissionSpec and RoutingSpec are
// its four instantiations.
type PolicySpec[T any, F family[T]] struct {
	Name   string      `json:"name"`
	Params spec.Params `json:"params,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler: a bare string is a name or
// spec string.
func (sp *PolicySpec[T, F]) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		var f F
		sp.Name, sp.Params, err = f.parse(s)
		return err
	}
	var obj struct {
		Name   string      `json:"name"`
		Params spec.Params `json:"params"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	sp.Name, sp.Params = obj.Name, obj.Params
	return nil
}

// Label names the policy for reports and CSV columns, parameters
// included: "malleable-hysteresis(epoch_s=45,min_delta=2)". The label is
// itself a valid spec string (the owning package's ParseSpec round-trips
// it), so an exported grid row fully identifies its policy.
func (sp PolicySpec[T, F]) Label() string { return spec.Format(sp.Name, sp.Params) }

// New constructs a fresh policy instance (policies may hold per-run
// state, so every simulation must construct its own). For the appmodel
// "mix" sentinel it returns a nil model.
func (sp PolicySpec[T, F]) New() (T, error) {
	var f F
	v, _, err := f.resolve(sp.Name, sp.Params)
	return v, err
}

// validate resolves the policy once, failing fast on unknown names or
// parameters, and canonicalizes the name for stable labels.
func (sp *PolicySpec[T, F]) validate() error {
	var f F
	_, name, err := f.resolve(sp.Name, sp.Params)
	if err != nil {
		return err
	}
	sp.Name = name
	return nil
}

// PolicyList is one policy axis; it unmarshals from a single entry or an
// array of entries, like ArrivalList.
type PolicyList[T any, F family[T]] []PolicySpec[T, F]

// UnmarshalJSON implements json.Unmarshaler.
func (l *PolicyList[T, F]) UnmarshalJSON(data []byte) (err error) {
	*l, err = oneOrMany[PolicySpec[T, F]](data)
	return err
}

// oneOrMany decodes a JSON array of E, or a single E as a one-entry
// list, so simple scenarios stay terse.
func oneOrMany[E any](data []byte) ([]E, error) {
	var many []E
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one E
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, err
	}
	return []E{one}, nil
}

// resolved adapts a registry constructor to family.resolve.
func resolved[T interface{ Name() string }](v T, err error) (T, string, error) {
	if err != nil {
		return v, "", err
	}
	return v, v.Name(), nil
}

type (
	schedFamily     struct{}
	appModelFamily  struct{}
	admissionFamily struct{}
	routingFamily   struct{}
)

func (schedFamily) noun() string                                { return "scheduler" }
func (schedFamily) parse(s string) (string, spec.Params, error) { return sched.ParseSpec(s) }
func (schedFamily) resolve(name string, p spec.Params) (sched.Scheduler, string, error) {
	return resolved(sched.New(name, p))
}

func (appModelFamily) noun() string                                { return "appmodel" }
func (appModelFamily) parse(s string) (string, spec.Params, error) { return appmodel.ParseSpec(s) }
func (appModelFamily) resolve(name string, p spec.Params) (appmodel.AppModel, string, error) {
	if strings.EqualFold(name, MixModel) {
		if len(p) > 0 {
			return nil, "", fmt.Errorf("appmodel sentinel %q takes no parameters", MixModel)
		}
		return nil, MixModel, nil
	}
	return resolved(appmodel.New(name, p))
}

func (admissionFamily) noun() string                                { return "admission" }
func (admissionFamily) parse(s string) (string, spec.Params, error) { return federation.ParseSpec(s) }
func (admissionFamily) resolve(name string, p spec.Params) (federation.Admission, string, error) {
	return resolved(federation.NewAdmission(name, p))
}

func (routingFamily) noun() string                                { return "routing" }
func (routingFamily) parse(s string) (string, spec.Params, error) { return federation.ParseSpec(s) }
func (routingFamily) resolve(name string, p spec.Params) (federation.Router, string, error) {
	return resolved(federation.NewRouter(name, p))
}

// SchedulerSpec selects one scheduling policy of the grid (valid names:
// sched.Names()).
type SchedulerSpec = PolicySpec[sched.Scheduler, schedFamily]

// SchedulerList is the schedulers axis.
type SchedulerList = PolicyList[sched.Scheduler, schedFamily]

// AppModelSpec selects one application performance model of the grid
// (valid names: appmodel.Names()), or the sentinel "mix" — the native
// baseline where every mix component keeps its own registered model.
type AppModelSpec = PolicySpec[appmodel.AppModel, appModelFamily]

// AppModelList is the appmodels axis.
type AppModelList = PolicyList[appmodel.AppModel, appModelFamily]

// MixModel is the sentinel AppModelSpec name selecting each mix
// component's native model (no override).
const MixModel = "mix"

// AdmissionSpec selects one admission policy of the federation grid
// (valid names: federation.AdmissionNames()).
type AdmissionSpec = PolicySpec[federation.Admission, admissionFamily]

// AdmissionList is the federation block's admissions axis.
type AdmissionList = PolicyList[federation.Admission, admissionFamily]

// RoutingSpec selects one routing policy of the federation grid (valid
// names: federation.RouterNames()).
type RoutingSpec = PolicySpec[federation.Router, routingFamily]

// RoutingList is the federation block's routings axis.
type RoutingList = PolicyList[federation.Router, routingFamily]

// Overrides are the CLIs' comma-separated policy-axis lists (-schedulers,
// -appmodels, -admissions, -routings); an empty list keeps the scenario's
// axis.
type Overrides struct {
	Schedulers, AppModels, Admissions, Routings string
}

// ApplyOverrides replaces every policy axis given in o with its parsed
// list, then validates the spec once (also when o is empty) — the shared
// implementation of dpssweep's override flags. The admission and routing
// axes exist only in a federation block.
func (s *Spec) ApplyOverrides(o Overrides) error {
	if err := s.Schedulers.set(o.Schedulers); err != nil {
		return err
	}
	if err := s.AppModels.set(o.AppModels); err != nil {
		return err
	}
	switch f := s.Federation; {
	case f != nil:
		if err := f.Admissions.set(o.Admissions); err != nil {
			return err
		}
		if err := f.Routings.set(o.Routings); err != nil {
			return err
		}
	case o.Admissions != "":
		return fmt.Errorf("scenario: -admissions requires a federation block")
	case o.Routings != "":
		return fmt.Errorf("scenario: -routings requires a federation block")
	}
	return s.Validate()
}

// set replaces the axis with a comma-separated CLI list ("" keeps it).
// Commas inside a parameter list — "a(x=1,y=2),b" — belong to the spec,
// so splitting tracks parenthesis depth. Empty tokens are an error (what
// is the name of the item before ",,"?). Entries are not yet validated;
// Spec.Validate resolves them.
func (l *PolicyList[T, F]) set(arg string) error {
	if arg == "" {
		return nil
	}
	var (
		list PolicyList[T, F]
		f    F
	)
	depth, start := 0, 0
	flush := func(tok string) error {
		if strings.TrimSpace(tok) == "" {
			return fmt.Errorf("scenario: empty %s spec in %q", f.noun(), arg)
		}
		name, params, err := f.parse(tok)
		if err != nil {
			return err
		}
		list = append(list, PolicySpec[T, F]{Name: name, Params: params})
		return nil
	}
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(arg[start:i]); err != nil {
					return err
				}
				start = i + 1
			}
		}
	}
	if err := flush(arg[start:]); err != nil {
		return err
	}
	*l = list
	return nil
}
