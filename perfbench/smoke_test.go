package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// ownLayers names, by prefix, the per-layer metrics each workload must
// reach: a traced run that reports 0 for one of them lost a wrapper or
// a counter.
var ownLayers = map[string][]string{
	"flap":       {"eval.", "engine.", "server.publish_"},
	"serve":      {"gateway.", "server.prov_reads_per_query", "provstore."},
	"flap-dist2": {"cluster.", "nettransport."},
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload = workload
	cfg.Trace = trace
	cfg.Seconds = 1.5
	cfg.TraceBlock = 0.25
	cfg.FlapSide = 4
	cfg.ServeSide = 4
	cfg.Setups = 1
	cfg.Checkpoint = 6
	cfg.Out = t.TempDir()
	return cfg
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	units := map[string]string{}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
		layers = append(layers, m.Name)
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, trace)
			res, info, err := execute(cfg, run, "test")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, info.Notes)
			}
			want := e2e
			if trace {
				want = layers
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, units[name])
				}
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if len(got) != len(sorted) {
				t.Fatalf("%s trace=%v: emitted %v, want %v", w.Name, trace, got, sorted)
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("%s trace=%v: emitted %v, want %v", w.Name, trace, got, sorted)
				}
			}
			for name, m := range res.Metrics {
				if m.Value > 0 {
					continue
				}
				if !trace {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, name, m.Value)
				}
				for _, prefix := range ownLayers[w.Name] {
					if strings.HasPrefix(name, prefix) {
						t.Errorf("%s: traced run reports %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}
