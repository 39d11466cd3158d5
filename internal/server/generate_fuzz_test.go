package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzGenerateRelation drives POST /v1/relations with arbitrary bodies. The
// handler must never panic, and every response is a 201 carrying the
// relation or a JSON error: 400 bad_relation, or 409 catalog_full once the
// catalog is at its entry cap.
func FuzzGenerateRelation(f *testing.F) {
	for _, b := range []string{
		`{"name":"G","rows":5,"dims":2,"selectivity":1e-300}`,
		`{"name":"G","rows":5,"dims":2,"selectivity":5e-324}`,
		`{"name":"G","rows":64,"dims":16,"distribution":"anti-correlated","selectivity":1e-19,"seed":7}`,
		`{"name":"Syn","rows":50,"dims":2,"distribution":"correlated","selectivity":0.1,"seed":3}`,
		`{"name":"G","rows":5,"dims":2,"selectivity":-1}`,
		`{"name":"G","rows":-5,"dims":2}`,
		`{"name":"G","rows":65,"dims":2}`,
		`{"name":"G","rows":5,"dims":0}`,
		`{"name":"G","rows":5,"dims":17}`,
		`{"name":"G","rows":5,"dims":2,"distribution":"zipf"}`,
		`{"name":"9G","rows":5,"dims":2}`,
		`{"name":"G","rows":5,"dims":2,"selectivity":1e400}`,
		`not json`,
		``,
	} {
		f.Add([]byte(b))
	}
	srv := New(Config{MaxGeneratedRows: 64})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/relations", strings.NewReader(string(body))))
		if w.Code == http.StatusCreated {
			var info RelationInfo
			if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil || info.Rows > 64 {
				t.Fatalf("201 body %q (%v)", w.Body.Bytes(), err)
			}
			return
		}
		var e errorRecord
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("status %d, body %q: not a JSON error", w.Code, w.Body.Bytes())
		}
		if !(w.Code == http.StatusBadRequest && e.Code == errBadRelation || w.Code == http.StatusConflict && e.Code == errCatalogFull) {
			t.Fatalf("status %d, code %q; want 400 %s or 409 %s", w.Code, e.Code, errBadRelation, errCatalogFull)
		}
	})
}
