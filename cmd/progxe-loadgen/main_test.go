package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progxe/internal/server"
)

// TestRunFlagValidation pins the harness's argument contract: malformed
// invocations fail before any server is started or traffic fired.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"dims too small", []string{"-dims", "1"}, "-dims must be ≥ 2"},
		{"zero queries", []string{"-queries", "0"}, "-queries must be ≥ 1"},
		{"bad duration", []string{"-duration", "soon"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestQuantile pins the index math on the sorted-durations helper.
func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.99); got != 0 {
		t.Fatalf("quantile(nil) = %v, want 0", got)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1},
		{0.50, 5},
		{0.99, 9},
		{1.0, 10},
	}
	for _, tc := range cases {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Fatalf("quantile(.., %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// gateFixture builds a healthy measured window: n identical successful
// streams, every request served from one coalesced engine run with a warm
// plan cache.
func gateFixture(n int) ([]reqResult, server.Snapshot, server.Snapshot) {
	var hash [sha256.Size]byte
	hash[0] = 0xab
	results := make([]reqResult, n)
	for i := range results {
		results[i] = reqResult{
			status:  200,
			ttfr:    time.Duration(i+1) * time.Millisecond,
			total:   time.Duration(i+2) * time.Millisecond,
			results: 7,
			cached:  true,
			hash:    hash,
		}
	}
	before := server.Snapshot{PlanCacheHits: 10, PlanCacheMisses: 5, RunsStarted: 3}
	after := before
	after.PlanCacheHits += int64(n)
	after.RunsStarted++
	after.CoalescedRuns++
	after.CoalescedSubscribers += int64(n)
	return results, before, after
}

// TestReportGatesPass drives every gate at once through a window that
// satisfies all of them.
func TestReportGatesPass(t *testing.T) {
	results, before, after := gateFixture(8)
	cfg := config{
		burst:          8,
		gateHitRate:    0.99,
		gateP99:        time.Second,
		gateRuns:       1,
		gateFanout:     4,
		checkIdentical: true,
		checkPhases:    true,
	}
	if err := report(cfg, results, time.Second, before, after); err != nil {
		t.Fatalf("report on a healthy window = %v, want nil", err)
	}
}

// TestReportGatesFail flips each gate individually and checks the violation
// is reported (and names the offending measurement).
func TestReportGatesFail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config, *[]reqResult, *server.Snapshot)
		want   string
	}{
		{
			"failed request",
			func(_ *config, rs *[]reqResult, _ *server.Snapshot) {
				(*rs)[0].err = os.ErrDeadlineExceeded
			},
			"requests failed",
		},
		{
			"hit rate",
			func(_ *config, _ *[]reqResult, after *server.Snapshot) {
				after.PlanCacheMisses += 100
			},
			"hit rate",
		},
		{
			"p99 latency",
			func(cfg *config, _ *[]reqResult, _ *server.Snapshot) {
				cfg.gateP99 = time.Microsecond
			},
			"p99 TTFR",
		},
		{
			"engine runs",
			func(_ *config, _ *[]reqResult, after *server.Snapshot) {
				after.RunsStarted += 3
			},
			"engine runs, gate wants exactly",
		},
		{
			"fan-out",
			func(cfg *config, _ *[]reqResult, _ *server.Snapshot) {
				cfg.gateFanout = 100
			},
			"fan-out",
		},
		{
			"divergent streams",
			func(_ *config, rs *[]reqResult, _ *server.Snapshot) {
				(*rs)[1].hash[0] ^= 0xff
			},
			"distinct stream bodies",
		},
		{
			"cache-hit setup work",
			func(_ *config, rs *[]reqResult, _ *server.Snapshot) {
				(*rs)[2].setupMS = 1.5
			},
			"partition/region-build/prune",
		},
		{
			"no cached runs",
			func(_ *config, rs *[]reqResult, _ *server.Snapshot) {
				for i := range *rs {
					(*rs)[i].cached = false
				}
			},
			"no cached runs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, before, after := gateFixture(8)
			cfg := config{
				burst:          8,
				gateHitRate:    0.99,
				gateP99:        time.Second,
				gateRuns:       1,
				gateFanout:     4,
				checkIdentical: true,
				checkPhases:    true,
			}
			tc.mutate(&cfg, &results, &after)
			err := report(cfg, results, time.Second, before, after)
			if err == nil {
				t.Fatal("report passed, want a gate violation")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// readReport decodes the JSON report written at path.
func readReport(t *testing.T, path string) *loadReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestWriteJSONSchema pins the -json report shape: downstream trajectory
// tooling parses these files, so key names and figure identity must stay
// stable.
func TestWriteJSONSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	cfg := config{rows: 1234, dims: 3, burst: 64, jsonPath: path}
	if err := writeJSON(cfg, 2*time.Millisecond, 9*time.Millisecond, 150.5, 0.95, 32); err != nil {
		t.Fatal(err)
	}

	rep := readReport(t, path)
	if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	fig := rep.Figures[0]
	if fig.Figure != "serve-load" || fig.Kind != "serve-burst" {
		t.Fatalf("figure identity = %q/%q, want serve-load/serve-burst", fig.Figure, fig.Kind)
	}
	r := fig.Runs[0]
	if r.N != 1234 || r.Dims != 3 || r.Engine != "progxe" {
		t.Fatalf("run workload = %+v", r)
	}
	if r.ServeTTFRP50MS != 2 || r.ServeTTFRP99MS != 9 ||
		r.ThroughputRPS != 150.5 || r.CacheHitRate != 0.95 || r.CoalesceFanout != 32 {
		t.Fatalf("serve metrics = %+v", r)
	}

	// Open-loop runs report kind serve-mix.
	cfg.burst = 0
	if err := writeJSON(cfg, 0, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	rep2 := readReport(t, path)
	if rep2.Figures[0].Kind != "serve-mix" {
		t.Fatalf("open-loop kind = %q, want serve-mix", rep2.Figures[0].Kind)
	}

	// Raw key-name check: the serve metrics must serialize under the exact
	// names the CI summaries and comparisons grep for.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Figures []struct {
			Runs []map[string]any `json:"runs"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// Zero-valued metrics are omitempty; re-write with non-zero values to
	// observe every key.
	cfg.burst = 1
	if err := writeJSON(cfg, time.Millisecond, time.Millisecond, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got := doc.Figures[0].Runs[0]
	for _, key := range []string{
		"engine", "n", "dims", "dist",
		"serve_ttfr_p50_ms", "serve_ttfr_p99_ms",
		"throughput_rps", "cache_hit_rate", "coalesce_fanout",
	} {
		if _, ok := got[key]; !ok {
			t.Fatalf("-json run record lacks key %q: %v", key, got)
		}
	}
}

// TestLoadgenBurstEndToEnd exercises the full harness against a self-hosted
// server: a small warm-cache burst must complete without violations and
// produce parseable -json and -summary artifacts.
func TestLoadgenBurstEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load test")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "load.json")
	summaryPath := filepath.Join(dir, "summary.md")
	err := run([]string{
		"-rows", "150", "-dims", "2", "-queries", "2",
		"-burst", "2",
		"-json", jsonPath, "-summary", summaryPath,
	})
	if err != nil {
		t.Fatalf("burst run failed: %v", err)
	}
	rep := readReport(t, jsonPath)
	if len(rep.Figures) != 1 || rep.Figures[0].Kind != "serve-burst" {
		t.Fatalf("-json report shape: %+v", rep)
	}
	md, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### Serve-path load test") {
		t.Fatalf("-summary output lacks the table header:\n%s", md)
	}
}
