package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"progxe/internal/baseline"
	"progxe/internal/core"
	"progxe/internal/feed"
	"progxe/internal/query"
	"progxe/internal/smj"
)

// wireResult is one result record as the wire carries it, out kept as its
// bytes.
type wireResult struct {
	LeftID  int64           `json:"leftId"`
	RightID int64           `json:"rightId"`
	Out     json.RawMessage `json:"out"`
}

func byPair(a, b wireResult) int {
	return cmp.Or(cmp.Compare(a.LeftID, b.LeftID), cmp.Compare(a.RightID, b.RightID))
}

// generate registers a generated relation.
func generate(t *testing.T, ts *httptest.Server, req GenerateRequest) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/relations", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("generate %s: status %d", req.Name, resp.StatusCode)
	}
}

// streamRecords posts body to path and returns the raw record lines up to
// and including the first record of type until (all of them when until is
// empty), with the response left open for the caller to close.
func streamRecords(t *testing.T, ts *httptest.Server, path string, req QueryRequest, until string) ([][]byte, *http.Response) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := slices.Clone(sc.Bytes())
		lines = append(lines, line)
		var head struct{ Type string }
		if err := json.Unmarshal(line, &head); err != nil {
			t.Fatalf("%s: bad line %q", path, line)
		}
		if head.Type == until {
			break
		}
	}
	return lines, resp
}

// results decodes the result records among lines.
func results(t *testing.T, lines [][]byte) []wireResult {
	t.Helper()
	var out []wireResult
	for _, line := range lines {
		var head struct{ Type string }
		_ = json.Unmarshal(line, &head)
		if head.Type != "result" {
			continue
		}
		var r wireResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// spaceResults builds the LiveSpace of q over the server's current catalog
// and returns its result set as the wire would carry it.
func spaceResults(t *testing.T, srv *Server, q string) []wireResult {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	snap, missing := srv.catalog.snapshot([2]string{pq.From[0].Table, pq.From[1].Table})
	if missing != "" {
		t.Fatalf("relation %s missing", missing)
	}
	plan, err := pq.CompileLive(snap.rels[0], snap.rels[1])
	if err != nil {
		t.Fatal(err)
	}
	ls, err := core.NewLiveSpace(plan.Problem)
	if err != nil {
		t.Fatal(err)
	}
	var out []wireResult
	for _, r := range ls.Results() {
		b, err := json.Marshal(r.Out)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wireResult{LeftID: r.LeftID, RightID: r.RightID, Out: b})
	}
	return out
}

// sameWire fails unless got and want hold the same pairs with byte-equal
// out, each pair once.
func sameWire(t *testing.T, what string, got, want []wireResult) {
	t.Helper()
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byPair)
	slices.SortFunc(want, byPair)
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if byPair(got[i], want[i]) != 0 || !bytes.Equal(got[i].Out, want[i].Out) {
			t.Fatalf("%s: result %d is (%d,%d) %s, want (%d,%d) %s", what, i,
				got[i].LeftID, got[i].RightID, got[i].Out, want[i].LeftID, want[i].RightID, want[i].Out)
		}
	}
}

// prefQuery is a d-dimensional sum query over relations r and t.
func prefQuery(r, t string, d int, where, first string) string {
	var sel, pref []string
	for j := 0; j < d; j++ {
		sel = append(sel, fmt.Sprintf("(A.a%d + B.a%d) AS x%d", j, j, j))
		pref = append(pref, fmt.Sprintf("LOWEST(x%d)", j))
	}
	if first != "" {
		pref[0] = first
	}
	return "SELECT " + strings.Join(sel, ", ") + " FROM " + r + " A, " + t + " B WHERE A.jkey = B.jkey" + where +
		" PREFERRING " + strings.Join(pref, " AND ")
}

// TestSubscribeSnapshotMatchesSpace pins the snapshot's contract across
// data shapes: the stream up to the first checkpoint — served by the plan a
// /v1/query of the same query cached — is exactly the resident space's
// result set and a fresh /v1/query's, with byte-equal out vectors, over
// anti-correlated, independent and correlated data at d = 2 and 4, a
// self-join, a selection predicate and a HIGHEST preference.
func TestSubscribeSnapshotMatchesSpace(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	dists := map[string]string{"anti": "anti-correlated", "indep": "independent", "corr": "correlated"}
	for name, dist := range dists {
		for _, d := range []int{2, 4} {
			for i, side := range []string{"R", "T"} {
				generate(t, ts, GenerateRequest{
					Name: fmt.Sprintf("%s%s%d", name, side, d), Rows: 400, Dims: d,
					Distribution: dist, Selectivity: 0.01, Seed: uint64(10*d + i),
				})
			}
		}
	}
	cases := map[string]string{
		"self-join":  prefQuery("antiR2", "antiR2", 2, "", ""),
		"selection":  prefQuery("indepR4", "indepT4", 4, " AND A.a0 < 50 AND B.a1 >= 20", ""),
		"highest":    prefQuery("corrR2", "corrT2", 2, "", "HIGHEST(x0)"),
		"highest d4": prefQuery("antiR4", "antiT4", 4, "", "HIGHEST(x0)"),
	}
	for name := range dists {
		for _, d := range []int{2, 4} {
			cases[fmt.Sprintf("%s d=%d", name, d)] = prefQuery(fmt.Sprintf("%sR%d", name, d), fmt.Sprintf("%sT%d", name, d), d, "", "")
		}
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) {
			fresh, resp := streamRecords(t, ts, "/v1/query", QueryRequest{Query: q}, "")
			resp.Body.Close()
			want := results(t, fresh)
			if len(want) == 0 {
				t.Fatal("the fresh query returned no results")
			}

			lines, resp := streamRecords(t, ts, "/v1/subscribe", QueryRequest{Query: q}, "checkpoint")
			resp.Body.Close()
			var run, cp struct {
				Type   string
				Cached bool
				Live   int
			}
			_ = json.Unmarshal(lines[0], &run)
			_ = json.Unmarshal(lines[len(lines)-1], &cp)
			if run.Type != "run" || !run.Cached {
				t.Fatalf("head record %s: want a run streaming the plan the query cached", lines[0])
			}
			if cp.Type != "checkpoint" {
				t.Fatalf("last record %s, want the snapshot's checkpoint", lines[len(lines)-1])
			}
			got := results(t, lines)
			if cp.Live != len(got) {
				t.Fatalf("checkpoint live=%d after %d results", cp.Live, len(got))
			}
			sameWire(t, "stream against the fresh query", got, want)
			sameWire(t, "stream against the live space", got, spaceResults(t, srv, q))
		})
	}
}

// TestSubscribeSnapshotMismatchFails pins the snapshot's self-check: when
// the streamed pairs are not the space's alive set — here the batch stream
// loses one result — the subscription ends with a terminal internal error
// instead of a checkpoint, fails in the run log and gives its slot back.
func TestSubscribeSnapshotMismatchFails(t *testing.T) {
	snapshotHook = func(sink smj.Sink) smj.Sink {
		dropped := false
		return smj.SinkFunc(func(r smj.Result) {
			if !dropped {
				dropped = true
				return
			}
			sink.Emit(r)
		})
	}
	t.Cleanup(func() { snapshotHook = nil }) // runs after the server has closed
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 1})

	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	run := sub.next(t)
	if run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	for {
		rec := sub.next(t)
		if rec == nil {
			t.Fatal("stream ended without a terminal error record")
		}
		if rec["type"] == "checkpoint" {
			t.Fatalf("a mismatched snapshot was checkpointed: %v", rec)
		}
		if rec["type"] == "error" {
			if rec["code"] != errInternal || !strings.Contains(rec["message"].(string), "snapshot does not match the live space") {
				t.Fatalf("terminal record = %v, want an internal snapshot mismatch", rec)
			}
			break
		}
	}
	if rec := sub.next(t); rec != nil {
		t.Fatalf("stream kept going after the terminal error: %v", rec)
	}
	requireFailedRun(t, srv, run["id"].(string), "snapshot does not match the live space")
	waitForStats(t, srv, "the failed subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 0 })
	snapshotHook = nil
	subscribeTiny(t, ts) // the only slot is free again
}

// TestSubscribeDisconnectMidBuildReleasesSlot: a client that leaves while
// its space is still being built — the batch snapshot already streamed —
// ends the build, gets its slot back, and leaves no goroutine behind.
func TestSubscribeDisconnectMidBuildReleasesSlot(t *testing.T) {
	var (
		first   atomic.Bool
		entered = make(chan struct{})
	)
	buildHook = func(ctx context.Context) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-ctx.Done() // hold the build until the subscription ends
		}
	}
	t.Cleanup(func() { buildHook = nil }) // runs after the server has closed
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 1})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	b, _ := json.Marshal(QueryRequest{Query: tinyQuery})
	resp, err := client.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	select {
	case <-entered:
	case <-time.After(15 * time.Second):
		t.Fatal("the build never started")
	}
	resp.Body.Close() // vanish with the build in flight

	until := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			runtime.Gosched()
		}
	}
	until("the subscription to end", func() bool {
		recs := srv.runlog.list()
		return len(recs) > 0 && srv.Stats().SubscriptionsLive == 0
	})
	if rec := srv.runlog.list()[0]; rec.Engine != "live" || rec.Outcome != "canceled" || rec.Reason != "disconnect" {
		t.Fatalf("run record = %+v, want a canceled live run", rec)
	}
	client.CloseIdleConnections()
	until("the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })

	// The only slot is free: a new subscription is admitted and snapshots.
	sub, _, net := subscribeTiny(t, ts)
	sub.resp.Body.Close()
	requireFreshQuery(t, ts, "the next subscription's snapshot", net)
}

// TestSubscribeRunRecordObservesSnapshot pins what /v1/runs reports of a
// subscription's snapshot: the plan-cache hit, the snapshot's emission
// milestones and the batch run's phases, beside the pre-commit checks'
// stageMillis and the snapshotMillis at its checkpoint.
func TestSubscribeRunRecordObservesSnapshot(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	queryPairs(t, ts, tinyQuery) // caches the plan
	sub, id, net := subscribeTiny(t, ts)
	sub.resp.Body.Close()
	var rec RunRecord
	waitFor(t, "the subscription's run record", func() bool {
		for _, rr := range srv.runlog.list() {
			if rr.ID == id {
				rec = rr
				return true
			}
		}
		return false
	})
	if !rec.Cached {
		t.Fatalf("run record %+v: want cached", rec)
	}
	if p := rec.Progress; p.Count != int64(len(net)) || p.FirstMillis <= 0 || p.LastMillis < p.FirstMillis {
		t.Fatalf("progress %+v, want %d results with their milestones", p, len(net))
	}
	if len(rec.Phases.Phases) == 0 {
		t.Fatalf("run record %+v carries no phases", rec)
	}
	if rec.StageMillis <= 0 || rec.SnapshotMillis < rec.StageMillis || rec.SnapshotMillis < rec.Progress.LastMillis {
		t.Fatalf("stage %v snapshot %v last result %v", rec.StageMillis, rec.SnapshotMillis, rec.Progress.LastMillis)
	}
}

// pastBoundsRelations hold two huge values under join keys nothing else
// has: no pair overflows, though the interval image of the relations' boxes
// does.
var pastBoundsRelations = map[string]string{
	"HL": "id,price,speed,region\n1,1.7e308,5,7\n2,3,4,1\n3,2,6,1\n",
	"HR": "id,cost,delay,region\n1,1.7e308,2,8\n2,1,1,1\n3,0,3,1\n",
}

const pastBoundsQuery = `SELECT (L.price + R.cost) AS total, (L.speed + R.delay) AS lag
	FROM HL L, HR R WHERE L.region = R.region PREFERRING LOWEST(total) AND LOWEST(lag)`

// putRelations uploads each CSV of rels under its name.
func putRelations(t *testing.T, ts *httptest.Server, rels map[string]string) {
	t.Helper()
	for name, csv := range rels {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/"+name, strings.NewReader(csv))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
}

// recordHead decodes the type, cached and live members of a record line.
func recordHead(t *testing.T, line []byte) (typ string, cached bool, live int) {
	t.Helper()
	var h struct {
		Type   string
		Cached bool
		Live   int
	}
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatal(err)
	}
	return h.Type, h.Cached, h.Live
}

// TestSubscribeSnapshotFromProgXePlan pins that every subscription streams
// its snapshot from a ProgXe plan — under a baseline default engine, with
// the plan cache off, and over a finite join whose interval bounds
// overflow: the stream arrives in the release order of a /v1/query with
// "engine":"progxe", it is the live space's result set and a fresh query's,
// and a checkpoint closes it. A later subscription reads the plan that
// query cached.
func TestSubscribeSnapshotFromProgXePlan(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		query string
		rels  map[string]string
	}{
		{"baseline default engine", Config{DefaultEngine: "jfsl"}, tinyQuery, nil},
		{"plan cache off", Config{PlanCacheSize: -1}, tinyQuery, nil},
		{"finite join past the interval bounds", Config{}, pastBoundsQuery, pastBoundsRelations},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := newTestServer(t, c.cfg)
			putRelations(t, ts, c.rels)
			lines, resp := streamRecords(t, ts, "/v1/subscribe", QueryRequest{Query: c.query}, "checkpoint")
			resp.Body.Close()
			got := results(t, lines)
			typ, cached, _ := recordHead(t, lines[0])
			end, _, live := recordHead(t, lines[len(lines)-1])
			if typ != "run" || cached || end != "checkpoint" || live != len(got) || len(got) == 0 {
				t.Fatalf("snapshot %s: want a run record (not cached), results, and a checkpoint counting them", bytes.Join(lines, []byte("\n")))
			}
			sameWire(t, "stream against the live space", got, spaceResults(t, srv, c.query))
			requireFresh(t, ts, c.query, "snapshot", pairsOf(got))

			qlines, qresp := streamRecords(t, ts, "/v1/query", QueryRequest{Query: c.query, Engine: "progxe"}, "")
			qresp.Body.Close()
			want := results(t, qlines)
			for i := range got {
				if byPair(got[i], want[i]) != 0 {
					t.Fatalf("snapshot result %d is (%d,%d), the ProgXe query released (%d,%d)",
						i, got[i].LeftID, got[i].RightID, want[i].LeftID, want[i].RightID)
				}
			}

			lines, resp = streamRecords(t, ts, "/v1/subscribe", QueryRequest{Query: c.query}, "run")
			resp.Body.Close()
			if _, cached, _ := recordHead(t, lines[0]); cached != (c.cfg.PlanCacheSize >= 0) {
				t.Fatalf("second subscription cached = %v with plan cache size %d", cached, c.cfg.PlanCacheSize)
			}
		})
	}
}

func pairsOf(rs []wireResult) map[pair]bool {
	out := map[pair]bool{}
	for _, r := range rs {
		out[pair{r.LeftID, r.RightID}] = true
	}
	return out
}

// TestQueryRefusesOnlyNonFiniteOutputs pins the batch engine's finite-output
// rule on /v1/query: a join whose interval bounds overflow though none of
// its pairs does answers the oracle's result set, and a join one pair of
// which overflows is refused before any header, starting no run.
func TestQueryRefusesOnlyNonFiniteOutputs(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	putRelations(t, ts, pastBoundsRelations)
	lines, resp := streamRecords(t, ts, "/v1/query", QueryRequest{Query: pastBoundsQuery}, "")
	resp.Body.Close()
	if typ, _, _ := recordHead(t, lines[len(lines)-1]); typ != "stats" || bytes.Contains(lines[len(lines)-1], []byte(`"error"`)) {
		t.Fatalf("trailer %s, want a clean stats record", lines[len(lines)-1])
	}
	pq, err := query.Parse(pastBoundsQuery)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := srv.catalog.snapshot([2]string{"HL", "HR"})
	p, err := pq.Compile(snap.rels[0], snap.rels[1])
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireResult
	for _, r := range oracle {
		out, _ := json.Marshal(r.Out)
		want = append(want, wireResult{LeftID: r.LeftID, RightID: r.RightID, Out: out})
	}
	sameWire(t, "query against the oracle", results(t, lines), want)
	started := srv.Stats().RunsStarted

	// Give HR's huge tuple HL's key: now that pair overflows.
	putRelations(t, ts, map[string]string{"HR": "id,cost,delay,region\n1,1.7e308,2,7\n2,1,1,1\n3,0,3,1\n"})
	b, _ := json.Marshal(QueryRequest{Query: pastBoundsQuery})
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e errorRecord
	if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != errBadQuery ||
		!strings.Contains(e.Message, "left tuple 1 and right tuple 1") {
		t.Fatalf("status %d body %s, want 400 %s naming the pair (1,1)", resp.StatusCode, body, errBadQuery)
	}
	if st := srv.Stats(); st.RunsStarted != started {
		t.Fatalf("the refused query started a run: %d runs, %d before", st.RunsStarted, started)
	}
}

// TestSubscribeRefusesNonFiniteInsert pins that an insert some new pair of
// which maps to a non-finite output ends the subscription with a terminal
// bad_query record and a failed run, without streaming that pair, and that
// a fresh /v1/query refuses the same relations.
func TestSubscribeRefusesNonFiniteInsert(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sub, id, net := subscribeTiny(t, ts)
	huge := []float64{1.7e308, -1.7e308}
	postChanges(t, ts, "L", []feed.Change{{Relation: "L", Op: feed.OpInsert, ID: 100, Vals: huge, JoinKey: 9}})
	sub.drainTo(t, 0, net) // the left insert pairs with nothing
	postChanges(t, ts, "R", []feed.Change{{Relation: "R", Op: feed.OpInsert, ID: 100, Vals: huge, JoinKey: 9}})
	rec := sub.next(t)
	if rec == nil || rec["type"] != "error" || rec["code"] != errBadQuery ||
		!strings.Contains(rec["message"].(string), "left tuple 100 and right tuple 100 map to a non-finite output") {
		t.Fatalf("record after the overflowing insert = %v, want a terminal bad_query error", rec)
	}
	if rec := sub.next(t); rec != nil {
		t.Fatalf("stream kept going after the terminal error: %v", rec)
	}
	requireFailedRun(t, srv, id, "non-finite output")

	b, _ := json.Marshal(QueryRequest{Query: tinyQuery})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fresh query over the overflowing relations: status %d, want 400", resp.StatusCode)
	}
}
