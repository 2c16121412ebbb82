package federation

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFederationDoc pins docs/federation.md to the code it describes:
// every registered policy name, every policy parameter, the public API
// surface, the certifying tests, the CLI flags and the exported
// per-member accounting must all be mentioned. Renaming any of them without updating the
// doc fails CI.
func TestFederationDoc(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "federation.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	var needles []string
	for _, name := range AdmissionNames() {
		needles = append(needles, "`"+name+"`")
	}
	for _, name := range RouterNames() {
		needles = append(needles, "`"+name+"`")
	}
	needles = append(needles,
		// Policy parameters, as accepted by ParseSpec.
		"`rate`", "`burst`", "`tenants`", "`jobs`", "`window_s`",
		"`free`", "`queue`",
		// Public API surface.
		"ParseSpec", "FormatSpec", "CheckInvariants",
		"Offer", "InjectInto", "ProcessNextEvent", "SchedulerFactory",
		"Merged", "ClusterView", "LoadInfo",
		// Certifying tests and benchmarks.
		"TestCheckInvariantsAllPairs",
		"TestCheckInvariantsBitesAdmission",
		"TestCheckInvariantsBitesRouter",
		"TestSingleClusterGolden",
		"TestFederatedScenarioGolden",
		"TestFederationStepZeroAllocSteadyState",
		"BenchmarkFederationStep",
		"FuzzFederation",
		"TestFederatedSweepWorkerDeterminism",
		"TestFederatedShardMerge",
		// CLI and export surface, per-member accounting included.
		"`-admissions`", "`-routings`", "`-summary-out`",
		"`admission`", "`routing`", "`mean_rejected_jobs`",
		"`arrived`", "MemberProbes", "TestMemberProbesCountRoutedJobs",
	)
	for _, needle := range needles {
		if !strings.Contains(doc, needle) {
			t.Errorf("docs/federation.md does not mention %s", needle)
		}
	}
}
