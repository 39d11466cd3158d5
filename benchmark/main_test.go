package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// lastLine parses the result line a run ends its standard output with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

func requireMetrics(t *testing.T, r resultLine, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("result not clean: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("result carries %d metrics, catalogue has %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
}

// TestQuickSuite smoke-runs every workload through both passes at 1/20 of
// its size, so tier-1 notices when a symbol or wire field the benchmark
// binds to goes away.
func TestQuickSuite(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-out", t.TempDir()}, &buf); err != nil {
		t.Fatalf("quick run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, w := range workloads {
		for _, d := range endToEnd {
			if !strings.Contains(out, "\n"+w.name+" "+d.Name+" ") {
				t.Errorf("no %s row for %s", d.Name, w.name)
			}
		}
		if !strings.Contains(out, "\n"+w.name+" core.commit_ms ") {
			t.Errorf("no traced rows for %s", w.name)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Errorf("a correctness check failed:\n%s", out)
	}
	requireMetrics(t, lastLine(t, out), perLayer)
}

// TestDriverInvocation runs one workload the way the benchmark driver does.
func TestDriverInvocation(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var buf bytes.Buffer
		args := []string{"-quick", "-out", t.TempDir(), "--workload", "indep_probe", "--seed", "7", "--seconds", "1", "--trace", c.trace}
		if err := run(args, &buf); err != nil {
			t.Fatalf("trace %s: %v\n%s", c.trace, err, buf.String())
		}
		r := lastLine(t, buf.String())
		requireMetrics(t, r, c.defs)
		if c.trace == "0" {
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v; it must never be 0", name, m.Value)
				}
			}
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	if err := run([]string{"-workload", "nope", "-out", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload must fail the run")
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json in step with the catalogue the
// benchmark actually prints.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", doc.Command)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, benchmark has %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s: bound of %s differs from the catalogue's %v", kind, d.Name, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v of %s is outside (0, 0.25]", kind, d.Bound, d.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
