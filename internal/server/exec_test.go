package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// execObj extracts the nested exec object from a decoded run record. Every
// run record carries one (empty for a serial run), so a missing or mis-typed
// object is a failure.
func execObj(t *testing.T, run map[string]any) map[string]any {
	t.Helper()
	ex, ok := run["exec"].(map[string]any)
	if !ok {
		t.Fatalf("run record has no exec object: %v", run)
	}
	return ex
}

// TestExecRemovedMembersIgnored pins what a client of an older API sees:
// members the exec object no longer has (committers, speculate, ranker) and
// the retired flat spelling are unknown JSON members — accepted whatever
// their value, ignored, and absent from the echoed exec — while the member
// that remains still clamps.
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

	nested, nn := collect(`"exec":{"workers":64,"committers":-1,"speculate":64,"ranker":"nope"}`)
	if len(nested) != 1 || nested["workers"] != float64(2) {
		t.Fatalf("exec echo = %v, want exactly workers=2 (capped)", nested)
	}
	flat, fn := collect(`"workers":2,"committers":2,"speculate":2,"ranker":"cardinality"`)
	if len(flat) != 0 {
		t.Fatalf("exec echo = %v, want a serial run: the flat spelling is ignored", flat)
	}
	if nn == 0 || nn != fn {
		t.Fatalf("result counts: nested %d, flat %d", nn, fn)
	}
}
