package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"progxe/internal/query"
)

// FuzzDecodeRequest drives the request boundary shared by /v1/query and
// /v1/subscribe with arbitrary body bytes and Accept headers. It must never
// panic; a rejected request answers a JSON 400 whose code names the field
// at fault; an accepted one carries a query whose canonical text re-parses
// to itself (the plan-cache and coalesce keys are that text), and whose
// exec object resolves to a worker grant within [0, MaxRunWorkers].
func FuzzDecodeRequest(f *testing.F) {
	bodies := []string{
		`{"query":` + jsonString(tinyQuery) + `}`,
		`{"engine":"progxe","query":` + jsonString(tinyQuery) + `,"exec":{"workers":64}}`,
		`{"engine":"jfsl","query":` + jsonString(tinyQuery) + `,"limit":1,"trace":true}`,
		`{"query":` + jsonString(tinyQuery) + `,"format":"sse","timeoutMillis":5}`,
		`{"query":` + jsonString(tinyQuery) + `,"format":"xml"}`,
		`{"query":` + jsonString(tinyQuery) + `,"exec":{"workers":-3,"committers":2},"workers":2}`,
		`{"query":"SELECT (MIN(R.a, 2 * T.b)) AS m FROM X R, Y T WHERE R.k = T.k PREFERRING HIGHEST(m)"}`,
		`{"query":"SELECT FROM WHERE"}`,
		`{"query":1}`,
		`{"exec":null}`,
		`[]`,
		`{`,
		``,
	}
	for _, b := range bodies {
		f.Add([]byte(b), "")
		f.Add([]byte(b), "text/event-stream")
	}
	s := &Server{cfg: Config{MaxRunWorkers: 4}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte, accept string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		r.Header.Set("Accept", accept)
		w := httptest.NewRecorder()
		req, q, sse, ok := decodeRequest(w, r, "query")
		if !ok {
			var e errorRecord
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &e) != nil {
				t.Fatalf("rejection: status %d, body %q; want a JSON 400", w.Code, w.Body.Bytes())
			}
			if e.Code != errBadRequest && e.Code != errBadFormat && e.Code != errBadQuery {
				t.Fatalf("rejection code %q", e.Code)
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted request wrote %q", w.Body.Bytes())
		}
		if strings.EqualFold(req.Format, "sse") && !sse || strings.EqualFold(req.Format, "ndjson") && sse {
			t.Fatalf("format %q decoded as sse=%v", req.Format, sse)
		}
		text := q.String()
		again, err := query.Parse(text)
		if err != nil {
			t.Fatalf("canonical text %q does not re-parse: %v", text, err)
		}
		if again.String() != text {
			t.Fatalf("canonical text %q re-parses as %q", text, again.String())
		}
		if ex := s.resolveExec(&req); ex.Workers < 0 || ex.Workers > s.cfg.MaxRunWorkers {
			t.Fatalf("exec %+v resolves to %d workers, cap %d", req.Exec, ex.Workers, s.cfg.MaxRunWorkers)
		}
	})
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
