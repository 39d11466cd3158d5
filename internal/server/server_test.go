package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"progxe/internal/core"
	"progxe/internal/engines"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// gatedEngine is a ContextEngine test double: it emits one result, then
// blocks until the test releases it (or its context is canceled). It makes
// mid-run server states — streams in flight, slots held, disconnects —
// deterministic instead of timing-dependent.
type gatedEngine struct {
	started chan struct{} // closed once the run begins
	emitted chan struct{} // closed after the first result is emitted
	proceed chan struct{} // the run blocks on this after the first result
}

func newGatedEngine() *gatedEngine {
	return &gatedEngine{
		started: make(chan struct{}),
		emitted: make(chan struct{}),
		proceed: make(chan struct{}),
	}
}

func (g *gatedEngine) Name() string { return "gated" }

func (g *gatedEngine) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return g.RunContext(context.Background(), p, sink)
}

func (g *gatedEngine) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	close(g.started)
	sink.Emit(smj.Result{LeftID: 10, RightID: 20, Out: []float64{1, 2}})
	close(g.emitted)
	select {
	case <-g.proceed:
		sink.Emit(smj.Result{LeftID: 11, RightID: 21, Out: []float64{3, 4}})
		return smj.Stats{ResultCount: 2}, nil
	case <-ctx.Done():
		return smj.Stats{}, ctx.Err()
	}
}

var _ smj.ContextEngine = (*gatedEngine)(nil)

// tinyCSV is a two-relation fixture small enough to inline.
const (
	tinyLeftCSV  = "id,price,speed,region\n1,10,5,1\n2,20,1,1\n3,5,9,2\n"
	tinyRightCSV = "id,cost,delay,region\n1,3,2,1\n2,8,1,2\n3,1,7,1\n"
)

const tinyQuery = `SELECT (L.price + R.cost) AS total, (L.speed + R.delay) AS lag
	FROM L L, R R WHERE L.region = R.region
	PREFERRING LOWEST(total) AND LOWEST(lag)`

// newTestServer starts an httptest server with the tiny fixture uploaded.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for name, csv := range map[string]string{"L": tinyLeftCSV, "R": tinyRightCSV} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/"+name, strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
	return srv, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCatalogCSVRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Download must reproduce the uploaded CSV byte-for-byte.
	resp, err := http.Get(ts.URL + "/v1/relations/L")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != tinyLeftCSV {
		t.Fatalf("round-trip mismatch:\ngot  %q\nwant %q", got, tinyLeftCSV)
	}
	// And parse back into an equal relation.
	rel, err := relation.ReadCSV("L", bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 || rel.Schema.JoinAttr != "region" {
		t.Fatalf("round-trip relation: %d rows, join %q", rel.Len(), rel.Schema.JoinAttr)
	}

	// Listing reflects both relations.
	var listing struct {
		Relations []RelationInfo `json:"relations"`
	}
	getJSON(t, ts.URL+"/v1/relations", &listing)
	if len(listing.Relations) != 2 || listing.Relations[0].Name != "L" || listing.Relations[1].Name != "R" {
		t.Fatalf("listing = %+v", listing)
	}
	if listing.Relations[0].Rows != 3 || listing.Relations[0].JoinAttr != "region" {
		t.Fatalf("listing info = %+v", listing.Relations[0])
	}

	// Delete, then the download 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/relations/L", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	g2, err := http.Get(ts.URL + "/v1/relations/L")
	if err != nil {
		t.Fatal(err)
	}
	g2.Body.Close()
	if g2.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete download: status %d", g2.StatusCode)
	}
}

func TestGenerateRelationEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"name":"Syn","rows":50,"dims":2,"distribution":"anti-correlated","selectivity":0.1,"seed":3}`
	resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	var info RelationInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 50 || len(info.Attrs) != 2 || info.JoinAttr != "jkey" {
		t.Fatalf("generated info = %+v", info)
	}

	for _, bad := range []string{
		`{"name":"x y","rows":5,"dims":2}`,                      // invalid identifier
		`{"name":"ok","rows":5,"dims":0}`,                       // datagen rejects dims
		`{"name":"ok","rows":1000000000000}`,                    // over row cap
		`{"name":"ok","rows":5,"dims":1000000}`,                 // over dims cap
		`{"name":"ok","rows":5,"dims":2,"distribution":"zipf"}`, // unknown distribution
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("generate %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestGenerateHostileSelectivity: a selectivity whose join domain is past
// the int64 range answers with a JSON response — the relation, or a 400 —
// never a dropped connection.
func TestGenerateHostileSelectivity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sel := range []string{"1e-300", "5e-324", "1e-19"} {
		body := `{"name":"G","rows":5,"dims":2,"selectivity":` + sel + `}`
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("selectivity %s: %v", sel, err)
		}
		var rec map[string]any
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("selectivity %s: status %d, body %v (%v); want a JSON 201 or 400", sel, resp.StatusCode, rec, err)
		}
	}
}

// TestQueryValidationErrors pins the one structured error shape every HTTP
// error body carries: {"type":"error","code":<stable-slug>,"message":...},
// with the code identifying the failure class.
func TestQueryValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    QueryRequest
		status int
		code   string
	}{
		{"malformed query", QueryRequest{Query: "SELECT FROM WHERE"}, http.StatusBadRequest, "bad_query"},
		{"unknown relation", QueryRequest{Query: strings.ReplaceAll(tinyQuery, "L L", "Nope L")}, http.StatusNotFound, "relation_not_found"},
		{"unknown attribute", QueryRequest{Query: strings.ReplaceAll(tinyQuery, "L.price", "L.nosuch")}, http.StatusBadRequest, "bad_query"},
		{"unknown engine", QueryRequest{Query: tinyQuery, Engine: "quantum"}, http.StatusBadRequest, "unknown_engine"},
		{"unknown format", QueryRequest{Query: tinyQuery, Format: "xml"}, http.StatusBadRequest, "bad_format"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postQuery(t, ts, c.req)
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, b)
			}
			var e errorRecord
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error envelope missing (err %v)", err)
			}
			if e.Type != "error" || e.Code != c.code || e.Message == "" {
				t.Fatalf("error envelope = %+v, want type=error code=%q with a message", e, c.code)
			}
		})
	}
}

// TestAdmissionControl verifies load shedding: with one slot held by a
// blocked run, the next query — a different one; an identical one would share
// the held run — is rejected with 429 and counted, and after release the
// service admits again.
func TestAdmissionControl(t *testing.T) {
	g := newGatedEngine()
	srv, ts := newTestServer(t, Config{
		MaxConcurrentRuns: 1,
		NewEngine:         func(string, core.Options) (smj.Engine, error) { return g, nil },
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postQuery(t, ts, QueryRequest{Query: tinyQuery})
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()
	<-g.started // the slot is now provably held

	resp := postQuery(t, ts, QueryRequest{Query: tinyQuery, Limit: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response lacks Retry-After")
	}
	resp.Body.Close()

	close(g.proceed)
	wg.Wait()

	st := srv.Stats()
	if st.RunsRejected != 1 {
		t.Fatalf("runsRejected = %d, want 1", st.RunsRejected)
	}
	if st.RunsCompleted != 1 || st.RunsActive != 0 {
		t.Fatalf("completed %d active %d, want 1/0", st.RunsCompleted, st.RunsActive)
	}

	// Slot released: a real engine run is admitted now.
	srv.cfg.NewEngine = engines.New
	resp = postQuery(t, ts, QueryRequest{Query: tinyQuery})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query: status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postQuery(t, ts, QueryRequest{Query: tinyQuery})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var snap Snapshot
	getJSON(t, ts.URL+"/v1/stats", &snap)
	if snap.RunsStarted != 1 || snap.RunsCompleted != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ResultsStreamed == 0 || snap.TTFRObserved != 1 {
		t.Fatalf("results %d ttfr %d", snap.ResultsStreamed, snap.TTFRObserved)
	}
	last := snap.TTFR[len(snap.TTFR)-1]
	if !last.Inf || last.Count != 1 {
		t.Fatalf("TTFR +Inf bucket = %+v", last)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"progxe_runs_started_total 1",
		"progxe_runs_active 0",
		`progxe_ttfr_seconds_bucket{le="+Inf"} 1`,
		"progxe_ttfr_seconds_count 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, b)
		}
	}

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var listed struct {
		Engines []string `json:"engines"`
		Default string   `json:"default"`
	}
	getJSON(t, ts.URL+"/v1/engines", &listed)
	if listed.Default != "progxe" || len(listed.Engines) != len(engines.Names()) {
		t.Fatalf("engines = %+v", listed)
	}
}

// TestRunTimeout verifies the per-request timeout: a run that never finishes
// is canceled and the trailing stats record says so.
func TestRunTimeout(t *testing.T) {
	g := newGatedEngine()
	srv, ts := newTestServer(t, Config{
		NewEngine: func(string, core.Options) (smj.Engine, error) { return g, nil },
	})
	resp := postQuery(t, ts, QueryRequest{Query: tinyQuery, TimeoutMillis: 50})
	defer resp.Body.Close()
	recs := decodeNDJSON(t, resp.Body)
	last := recs[len(recs)-1]
	if last["type"] != "stats" || last["canceled"] != true || last["reason"] != "timeout" {
		t.Fatalf("trailing record = %v", last)
	}
	if st := srv.Stats(); st.RunsCanceled != 1 {
		t.Fatalf("runsCanceled = %d, want 1", st.RunsCanceled)
	}
}

// TestCatalogEntryCap verifies that network registrations cannot grow the
// catalog without bound, while replacing an existing name stays allowed.
func TestCatalogEntryCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRelations: 3}) // L and R occupy 2 slots
	put := func(name string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/"+name, strings.NewReader(tinyLeftCSV))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("Third"); code != http.StatusCreated {
		t.Fatalf("third relation: status %d", code)
	}
	if code := put("Fourth"); code != http.StatusConflict {
		t.Fatalf("over-cap relation: status %d, want 409", code)
	}
	if code := put("Third"); code != http.StatusCreated {
		t.Fatalf("replacement at cap: status %d", code)
	}
	// The generate endpoint shares the cap.
	resp, err := http.Post(ts.URL+"/v1/relations", "application/json",
		strings.NewReader(`{"name":"Fifth","rows":5,"dims":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-cap generate: status %d, want 409", resp.StatusCode)
	}
}

// TestCatalogRowBudget verifies the aggregate row cap across the catalog.
func TestCatalogRowBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTotalRows: 10}) // L and R hold 6 rows
	gen := func(name string, rows int) int {
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":%q,"rows":%d,"dims":2}`, name, rows)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := gen("Small", 4); code != http.StatusCreated {
		t.Fatalf("within budget: status %d", code)
	}
	if code := gen("Burst", 5); code != http.StatusConflict {
		t.Fatalf("over budget: status %d, want 409", code)
	}
	// Replacing an existing relation with a smaller one frees budget.
	if code := gen("Small", 1); code != http.StatusCreated {
		t.Fatalf("shrinking replacement: status %d", code)
	}
	if code := gen("Burst", 3); code != http.StatusCreated {
		t.Fatalf("post-shrink registration: status %d", code)
	}
}

// TestUploadRejectsNonFiniteValues keeps NaN/Inf out of the catalog — they
// have no dominance semantics and cannot round-trip through JSON streams.
func TestUploadRejectsNonFiniteValues(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, csv := range []string{
		"id,a,k\n1,NaN,1\n",
		"id,a,k\n1,+Inf,1\n",
		"id,a,k\n1,-Infinity,1\n",
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/Weird", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %q: status %d, want 400", csv, resp.StatusCode)
		}
	}
}

// TestRunTimeoutOverflowClamped is the regression test for the
// TimeoutMillis overflow: a huge client value must not wrap negative and
// disable the server's RunTimeout cap.
func TestRunTimeoutOverflowClamped(t *testing.T) {
	g := newGatedEngine()
	_, ts := newTestServer(t, Config{
		RunTimeout: 50 * time.Millisecond,
		NewEngine:  func(string, core.Options) (smj.Engine, error) { return g, nil },
	})
	resp := postQuery(t, ts, QueryRequest{Query: tinyQuery, TimeoutMillis: 1 << 62})
	defer resp.Body.Close()
	recs := decodeNDJSON(t, resp.Body) // would block forever if the cap were lost
	last := recs[len(recs)-1]
	if last["type"] != "stats" || last["reason"] != "timeout" {
		t.Fatalf("trailing record = %v", last)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// waitForStats polls the server's counters until cond holds or the deadline
// passes, for states reached asynchronously (e.g. disconnect cancellation).
func waitForStats(t *testing.T, srv *Server, what string, cond func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := srv.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fmtRecords(recs []map[string]any) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%v\n", r)
	}
	return sb.String()
}
