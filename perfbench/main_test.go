package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the server child: runWorkload
// re-executes its own binary with the child arguments.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" && len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// timings are the end-to-end figures every measured run prints beside
// the metrics, with their units; each must carry a sample count.
var timings = map[string]string{
	"update_tput": "updates/s", "server_cpu_us_per_op": "us", "recovery_s": "s",
	"update_p50_ms": "ms", "notify_p50_ms": "ms", "query_p50_ms": "ms",
	"update_p99_ms": "ms", "notify_p99_ms": "ms", "query_p99_ms": "ms",
}

// TestSmoke runs every workload at toy size, measured and traced, and
// checks that exactly the metrics BENCHMARK.json declares are emitted with
// their units, that the timings are printed with their units and sample
// counts, and that every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server children")
	}
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			name := wl
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: wl, seed: 7, window: 4 * time.Second, trace: trace, toy: true, out: t.TempDir()}
				res, err := runWorkload(cfg, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
				}
				if trace {
					return
				}
				if res.Metrics["setup_s"].N < 1 {
					t.Errorf("setup_s has no sample count")
				}
				for name, unit := range timings {
					if m := res.Info[name]; m.N < 1 || m.Unit != unit {
						t.Errorf("timing %s not reported with unit %s and sample count: %+v", name, unit, m)
					}
				}
			})
		}
	}
}
