package server

import (
	"fmt"
	"testing"
)

// TestParallelQueryMatchesSerial drives the per-request workers knob end to
// end: a parallel run must stream the byte-identical result sequence of a
// serial run, and the run record must echo the granted (clamped) worker
// count.
func TestParallelQueryMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunWorkers: 2})
	q := e2eWorkload(t, ts)

	collect := func(req QueryRequest) (run map[string]any, results []map[string]any) {
		t.Helper()
		resp := postQuery(t, ts, req)
		defer resp.Body.Close()
		recs := decodeNDJSON(t, resp.Body)
		if recs[0]["type"] != "run" {
			t.Fatalf("stream starts with %v", recs[0])
		}
		last := recs[len(recs)-1]
		if last["type"] != "stats" || last["error"] != nil {
			t.Fatalf("stats trailer = %v", last)
		}
		return recs[0], recs[1 : len(recs)-1]
	}

	serialRun, serial := collect(QueryRequest{Query: q, Engine: "progxe"})
	if w, ok := execObj(t, serialRun)["workers"]; ok && w != float64(0) {
		t.Fatalf("serial run record advertises workers=%v", w)
	}
	// Ask for more than the cap: clamped to MaxRunWorkers, echoed back.
	parallelRun, parallel := collect(QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Workers: 64}})
	if w := execObj(t, parallelRun)["workers"]; w != float64(2) {
		t.Fatalf("parallel run record workers = %v, want 2 (clamped)", w)
	}

	if len(serial) != len(parallel) || len(serial) == 0 {
		t.Fatalf("result counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s["leftId"] != p["leftId"] || s["rightId"] != p["rightId"] ||
			fmt.Sprint(s["out"]) != fmt.Sprint(p["out"]) {
			t.Fatalf("result %d diverges: serial %v, parallel %v", i, s, p)
		}
	}

	// Negative requests degrade to serial rather than erroring.
	negRun, neg := collect(QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Workers: -3}})
	if w, ok := execObj(t, negRun)["workers"]; ok && w != float64(0) {
		t.Fatalf("negative workers granted %v", w)
	}
	if len(neg) != len(serial) {
		t.Fatalf("negative-workers run emitted %d results, want %d", len(neg), len(serial))
	}
}

// TestMaxRunWorkersDisabled verifies that a negative server cap turns the
// knob off entirely: every request runs serial.
func TestMaxRunWorkersDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunWorkers: -1})
	q := e2eWorkload(t, ts)
	resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Workers: 8}})
	defer resp.Body.Close()
	recs := decodeNDJSON(t, resp.Body)
	if w, ok := execObj(t, recs[0])["workers"]; ok && w != float64(0) {
		t.Fatalf("disabled cap still granted workers=%v", w)
	}
	if recs[len(recs)-1]["error"] != nil {
		t.Fatalf("run failed: %v", recs[len(recs)-1])
	}
}
