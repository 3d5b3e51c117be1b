package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmoke runs every workload, every layer probe and the traced run at
// tiny sizes. It asserts on wiring and the oracle, never on speed: it is in
// tier-1 so that removing a symbol the benchmark calls breaks the build or
// this test, not the next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	if err := runSmoke(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver reads, in
// step with the metric and workload tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest %+v, program %q / %q", i, got, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
}
