package scenario

import (
	"path/filepath"
	"sort"
	"testing"
)

// TestExampleScenarios loads every shipped scenario file and runs one
// cheap cell of each — the examples must stay executable as the schema
// evolves, and the volatile-capacity family must actually produce
// capacity events.
func TestExampleScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) < 8 {
		t.Fatalf("only %d example scenarios found", len(paths))
	}
	volatile := map[string]bool{"failures": false, "spot": false, "captrace": false, "volatile": false}
	for _, path := range paths {
		spec, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		availIdx := -1
		if len(spec.Availability) > 0 {
			availIdx = len(spec.Availability) - 1 // the most dynamic axis entry
		}
		// The first entry of every policy axis; federated scenarios have
		// no scheduler axis and run their first admission × routing pair.
		run, err := spec.RunCell(CellParams{
			Nodes: spec.Nodes[0], Load: spec.Loads[0],
			ArrivalIdx: 0, AvailIdx: availIdx, Seed: spec.Seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(run.Result.PerJob) == 0 {
			t.Fatalf("%s: no jobs finished", path)
		}
		if _, ok := volatile[spec.Name]; ok {
			volatile[spec.Name] = run.Result.CapacityEvents > 0
		}
	}
	for name, sawEvents := range volatile {
		if !sawEvents {
			t.Errorf("volatile-capacity scenario %q missing or produced no capacity events", name)
		}
	}
}
