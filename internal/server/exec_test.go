package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// execObj extracts the nested exec object from a decoded run record. Every
// run record carries one (the ranker field is always set), so a missing or
// mis-typed object is a failure, not an empty map.
func execObj(t *testing.T, run map[string]any) map[string]any {
	t.Helper()
	ex, ok := run["exec"].(map[string]any)
	if !ok {
		t.Fatalf("run record has no exec object: %v", run)
	}
	return ex
}

// TestExecRemovedMembersIgnored pins what a client of an older API sees:
// members the exec object no longer has (committers, speculate) and the
// retired flat spelling are unknown JSON members — accepted, ignored, and
// absent from the echoed exec — while the members that remain still clamp.
func TestExecRemovedMembersIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunWorkers: 2})
	q, err := json.Marshal(e2eWorkload(t, ts))
	if err != nil {
		t.Fatal(err)
	}

	collect := func(members string) (exec map[string]any, n int) {
		t.Helper()
		body := `{"engine":"progxe","query":` + string(q) + `,` + members + `}`
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query with %s returned %d", members, resp.StatusCode)
		}
		recs := decodeNDJSON(t, resp.Body)
		if recs[0]["type"] != "run" {
			t.Fatalf("stream starts with %v", recs[0])
		}
		last := recs[len(recs)-1]
		if last["type"] != "stats" || last["error"] != nil {
			t.Fatalf("stats trailer = %v", last)
		}
		return execObj(t, recs[0]), len(recs) - 2
	}

	nested, nn := collect(`"exec":{"workers":64,"committers":-1,"speculate":64,"ranker":"cardinality"}`)
	if len(nested) != 2 || nested["workers"] != float64(2) || nested["ranker"] != "cardinality" {
		t.Fatalf("exec echo = %v, want exactly workers=2 (capped) and ranker=cardinality", nested)
	}
	flat, fn := collect(`"workers":2,"committers":2,"speculate":2,"ranker":"cardinality"`)
	if len(flat) != 1 || flat["ranker"] != "benefit-cost" {
		t.Fatalf("exec echo = %v, want a serial default-ranker run: the flat spelling is ignored", flat)
	}
	if nn == 0 || nn != fn {
		t.Fatalf("result counts: nested %d, flat %d", nn, fn)
	}
}

// TestExecNestedValidation drives resolveExec's reject path: an unknown
// ranker is bad_exec, not a clamp.
func TestExecNestedValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := e2eWorkload(t, ts)
	resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe", Exec: &ExecRequest{Ranker: "nope"}})
	defer resp.Body.Close()
	var rec errorRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || rec.Code != errBadExec {
		t.Fatalf("unknown ranker returned %d code %q, want 400 bad_exec", resp.StatusCode, rec.Code)
	}
}
