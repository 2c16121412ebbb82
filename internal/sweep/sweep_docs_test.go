package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSweepDoc pins docs/sweep.md to the code: every JSON key of the
// checkpoint schema (which is also the shard artifact's), every
// sharding/resume CLI flag, and the planning gauge names must appear in
// the document.
func TestSweepDoc(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "sweep.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	jsonKeys := func(v any) []string {
		var keys []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			if tag != "" && tag != "-" {
				keys = append(keys, tag)
			}
		}
		return keys
	}
	for _, v := range []any{checkpointFile{}, checkpointCell{}, cellAccum{}} {
		keys := jsonKeys(v)
		if len(keys) == 0 {
			t.Fatalf("%T has no JSON keys — schema moved?", v)
		}
		for _, key := range keys {
			if !strings.Contains(doc, "`"+key+"`") {
				t.Errorf("%T JSON key `%s` is not documented in docs/sweep.md", v, key)
			}
		}
	}
	for _, flag := range []string{"-checkpoint", "-checkpoint-every", "-shard", "-merge"} {
		if !strings.Contains(doc, "`"+flag+" ") && !strings.Contains(doc, "`"+flag+"`") {
			t.Errorf("flag %s is not documented in docs/sweep.md", flag)
		}
	}
	for _, name := range []string{"dpsim_sweep_cells_deduped", "dpsim_sweep_cells_resumed", "dpsim_sweep_runs_total"} {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %s is not documented in docs/sweep.md", name)
		}
	}
	// The byte-identity contract must keep naming its pinning tests.
	for _, pin := range []string{"TestShardMergeByteIdentical", "TestInterruptResumeByteIdentical"} {
		if !strings.Contains(doc, pin) {
			t.Errorf("docs/sweep.md no longer references %s", pin)
		}
	}
}
