package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json must name exactly the metrics the program prints, with
// the units it prints them in.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	e2e := endToEnd(&result{lat: &intervals{}}, nil)
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program prints %+v, BENCHMARK.json says unit %s", m.Name, got, m.Unit)
		}
	}
	if len(names) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(names), len(e2e))
	}

	printed := map[string]bool{}
	for _, n := range layerNames {
		printed[n] = true
	}
	for n := range tracedLatency(&result{lat: &intervals{}}, nil) {
		printed[n] = true
	}
	var listed []string
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name)
		if !printed[m.Name] {
			t.Errorf("per-layer %s is not printed", m.Name)
		}
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("per-layer %s: program prints unit %s, BENCHMARK.json says %s", m.Name, u, m.Unit)
		}
	}
	if len(listed) != len(printed) {
		sort.Strings(listed)
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program prints %d: %v", len(listed), len(printed), listed)
	}
}
