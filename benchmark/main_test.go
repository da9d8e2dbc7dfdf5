package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metric tables defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}

func writeSummary(t *testing.T, s *summary) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "summary.json")
	if err := writeJSON(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func oneWorkload(fp string, latency, ops float64) *summary {
	m := map[string]metricSpread{}
	for _, d := range endToEnd {
		m[d.Name] = metricSpread{Median: 10, Q1: 9.9, Q3: 10.1}
	}
	m["latency_p50_ms"] = metricSpread{Median: latency, Q1: latency * 0.99, Q3: latency * 1.01}
	m["ops_per_s"] = metricSpread{Median: ops, Q1: ops * 0.99, Q3: ops * 1.01}
	return &summary{GoMaxProcs: 2, Runs: 5, Workloads: map[string]*workloadSummary{
		"serve-read": {Fingerprint: fp, Correct: true, Metrics: m},
	}}
}

// TestCompare checks the verdicts: within bound, a regression beyond the
// bound (in either better-direction), and no claim at all across a
// fingerprint change.
func TestCompare(t *testing.T) {
	base := writeSummary(t, oneWorkload("aaaa", 1.0, 1000))
	for _, c := range []struct {
		name      string
		change    *summary
		wantErr   bool
		wantLines []string
	}{
		{"same", oneWorkload("aaaa", 1.05, 980), false, []string{"latency_p50_ms", "within bound"}},
		{"slower", oneWorkload("aaaa", 1.3, 1000), true, []string{"regressed"}},
		{"fewer ops", oneWorkload("aaaa", 1.0, 700), true, []string{"regressed"}},
		{"refingerprinted", oneWorkload("bbbb", 2.0, 10), false, []string{"workload changed, re-baseline"}},
	} {
		var out bytes.Buffer
		err := compareSummaries(&out, base, writeSummary(t, c.change))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		for _, l := range c.wantLines {
			if !strings.Contains(out.String(), l) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, l, out.String())
			}
		}
		if c.name == "refingerprinted" && strings.Contains(out.String(), "bound") {
			t.Errorf("a fingerprint change still produced a verdict:\n%s", out.String())
		}
	}
}

// TestSmoke runs every workload on 1k-node worlds for half a second, plain
// and traced, and requires every correctness check to pass and every
// BENCHMARK.json metric to be reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, measure: 500 * time.Millisecond, warmup: 50 * time.Millisecond, short: true, out: io.Discard}
			res, err := runWorkload(w, cfg, traced, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", w.name, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != want {
				t.Errorf("%s traced=%v: summary %+v", w.name, traced, last)
			}
		}
	}
}
