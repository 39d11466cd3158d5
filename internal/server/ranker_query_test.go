package server

import (
	"fmt"
	"net/http"
	"sort"
	"testing"
)

// TestRankerQueryField drives the per-request ranker knob end to end: a
// cardinality-ranker run must be accepted, echo the annotated engine name in
// its run record, and stream the same final result set as the default
// benefit-cost run (the ranker reorders the schedule, never the answer);
// an unknown ranker must be rejected before admission.
func TestRankerQueryField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := e2eWorkload(t, ts)

	collect := func(req QueryRequest) (run map[string]any, results []string) {
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
		for _, r := range recs[1 : len(recs)-1] {
			results = append(results, fmt.Sprintf("%v|%v|%v", r["leftId"], r["rightId"], r["out"]))
		}
		sort.Strings(results)
		return recs[0], results
	}

	defRun, defResults := collect(QueryRequest{Query: q, Engine: "progxe"})
	if defRun["engine"] != "ProgXe" {
		t.Fatalf("default run engine = %v", defRun["engine"])
	}
	cardRun, cardResults := collect(QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Ranker: "cardinality"}})
	if cardRun["engine"] != "ProgXe (card-ranker)" {
		t.Fatalf("cardinality run engine = %v, want ProgXe (card-ranker)", cardRun["engine"])
	}
	if len(defResults) == 0 {
		t.Fatal("default run emitted nothing; the comparison is vacuous")
	}
	if len(defResults) != len(cardResults) {
		t.Fatalf("result sets differ in size: %d vs %d", len(defResults), len(cardResults))
	}
	for i := range defResults {
		if defResults[i] != cardResults[i] {
			t.Fatalf("result sets diverge at %d: %q vs %q", i, defResults[i], cardResults[i])
		}
	}

	// Spelling the default explicitly is accepted too.
	if run, _ := collect(QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Ranker: "benefit-cost"}}); run["engine"] != "ProgXe" {
		t.Fatalf("benefit-cost run engine = %v", run["engine"])
	}

	resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Ranker: "bogus"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown ranker returned %d, want 400", resp.StatusCode)
	}
}
