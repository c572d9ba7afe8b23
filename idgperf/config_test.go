package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// provenance.json must record the workloads this program runs.
func TestProvenanceMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Host struct {
			Nproc int `json:"nproc"`
		} `json:"host"`
		Workloads []struct {
			Name, Why, Shape string
			BusyThreads      int `json:"busy_threads"`
			Connections      int `json:"connections"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Host.Nproc < 1 || len(p.Workloads) != len(workloads) {
		t.Fatalf("provenance lists nproc %d and %d workloads, the program %d", p.Host.Nproc, len(p.Workloads), len(workloads))
	}
	for i, w := range p.Workloads {
		want := workloads[i]
		if w.Name != want.name || w.Why != want.why || w.Shape != want.shape || w.Connections != want.conns {
			t.Fatalf("workload %d: provenance %+v, program %q/%q/%q/%d", i, w, want.name, want.why, want.shape, want.conns)
		}
		if w.BusyThreads < 1 || w.BusyThreads > p.Host.Nproc {
			t.Fatalf("%s: %d busy threads on a %d-processor host", w.Name, w.BusyThreads, p.Host.Nproc)
		}
	}
}

// BENCHMARK.json must describe what this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Fatalf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Fatalf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Fatalf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Fatalf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Fatalf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
	}
}
