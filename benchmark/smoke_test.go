package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the schema of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in this package declare the same
// workloads and end-to-end metrics.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / code %q (or their reasons) differ", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	if float64(b.RunSeconds) != defaultConfig().Seconds {
		t.Errorf("run_seconds = %d, default -seconds = %g", b.RunSeconds, defaultConfig().Seconds)
	}
}

// All three workloads, traced, at a tiny size through the code path the
// real benchmark takes. A two-epoch detector is not held to the recall
// floors; conservation, the latency checks and the metric set are.
func TestSmoke(t *testing.T) {
	cfg := config{
		Seed: 1, Seconds: 1,
		TrainSessions: 20, ReplaySessions: 20, Epochs: 2, Setups: 1,
		Warmup: 300 * time.Millisecond, SessionRate: 100, DrainCap: 5 * time.Second,
	}
	dir := t.TempDir()
	reports, err := runAll(cfg, workloads, true, dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	b := loadBenchmarkJSON(t)
	for _, rep := range reports {
		for _, m := range b.EndToEnd {
			got, ok := rep.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or in another unit: %+v", rep.Workload, m.Name, m.Unit, got)
			}
		}
		for _, m := range b.PerLayer {
			got, ok := rep.PerLayer[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or in another unit: %+v", rep.Workload, m.Name, m.Unit, got)
			}
		}
		if len(rep.PerLayer) != len(b.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json lists %d", rep.Workload, len(rep.PerLayer), len(b.PerLayer))
		}
		for _, c := range rep.Checks {
			switch c.Name {
			case "conservation", "latency_nonnegative", "segments_sum_to_case", "nonzero.records_per_s", "nonzero.setup_s":
				if !c.OK {
					t.Errorf("%s: check %s failed: %s", rep.Workload, c.Name, c.Detail)
				}
			}
		}
		if rep.PerLayer["gen.drain_s"].Value >= cfg.DrainCap.Seconds() {
			t.Errorf("%s: drain hit its cap", rep.Workload)
		}
		if rep.Workload != "benign_capacity" && rep.PerLayer["nn.ae_ns_per_window"].Value <= 0 {
			t.Errorf("%s: layer probes did not run", rep.Workload)
		}
		spans, err := os.ReadFile(rep.TraceFile)
		if err != nil || len(spans) < 100 {
			t.Errorf("%s: trace file: %v (%d bytes)", rep.Workload, err, len(spans))
		}
	}
	if _, err := readResults(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Errorf("results file does not read back: %v", err)
	}
}
