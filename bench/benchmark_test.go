package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode pins ../BENCHMARK.json, which names the
// benchmark's command, workloads and metrics, to the workloads and
// metrics the code reports, in the same order. Every end-to-end bound
// is at most 10%, except set-up time's: BENCHMARK.json must carry
// setup_s, and a fit's time follows the shared host's speed, which moved
// its median by 17% between two calibration sets an hour apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []entry, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in code", kind, i, m, want[i])
			}
			limit := 0.10
			if m.Name == "setup_s" {
				limit = 0.25
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > limit)) {
				t.Errorf("%s metric %s has bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
