package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the catalogue must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range catalogue() {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
		if d.kind != endToEnd && d.moves == "" {
			t.Errorf("%s: per-layer metric or figure says nothing of what it moves or shows", d.name)
		}
	}
	if len(metricsOf(endToEnd)) == 0 || len(metricsOf(perLayer)) == 0 {
		t.Error("no end-to-end or no per-layer metrics")
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer := metricsOf(endToEnd), metricsOf(perLayer)
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(e2e))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		d := e2e[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %s %s %s %g", i, m, d.name, d.unit, d.better, d.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(layer))
	}
	for i, m := range b.PerLayer {
		d := layer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(ws))
	}
	for i, w := range b.Workloads {
		if w.Name != ws[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a %d-character why, want %q", i, w.Name, len(w.Why), ws[i].name)
		}
	}
}
