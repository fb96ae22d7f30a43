package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkSpecMatchesCode pins BENCHMARK.json at the repository root
// to the metrics and workloads this program reports.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"alloc-1024", "jobs-60", "sweep-1024"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spec workloads %v, want %v", names, want)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("spec workload %s is not one the program runs", n)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("spec has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s bound %g exceeds setup_s bound %g", m.Name, m.Bound, setupBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
