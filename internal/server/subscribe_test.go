package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"progxe/internal/feed"
)

// subStream is one open /v1/subscribe connection with its records pumped
// onto a channel, so tests can wait on specific records under a deadline
// instead of blocking on reads.
type subStream struct {
	resp  *http.Response
	lines chan map[string]any
}

func openSubscribe(t *testing.T, ts *httptest.Server, req QueryRequest) *subStream {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e errorRecord
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("subscribe: status %d (%+v)", resp.StatusCode, e)
	}
	s := &subStream{resp: resp, lines: make(chan map[string]any, 1024)}
	t.Cleanup(func() { resp.Body.Close() })
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var m map[string]any
			if json.Unmarshal(line, &m) == nil {
				s.lines <- m
			}
		}
	}()
	return s
}

// next returns the stream's next record, or nil on EOF; it fails the test
// rather than hanging when nothing arrives.
func (s *subStream) next(t *testing.T) map[string]any {
	t.Helper()
	select {
	case m, ok := <-s.lines:
		if !ok {
			return nil
		}
		return m
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out waiting for a subscription record")
		return nil
	}
}

type pair struct{ l, r int64 }

// drainTo reads records into the net result set until a checkpoint at or
// past seq arrives, returning that checkpoint.
func (s *subStream) drainTo(t *testing.T, seq uint64, net map[pair]bool) map[string]any {
	t.Helper()
	for {
		rec := s.next(t)
		if rec == nil {
			t.Fatalf("stream ended before checkpoint %d", seq)
		}
		switch rec["type"] {
		case "result":
			net[pair{int64(rec["leftId"].(float64)), int64(rec["rightId"].(float64))}] = true
		case "retract":
			delete(net, pair{int64(rec["leftId"].(float64)), int64(rec["rightId"].(float64))})
		case "checkpoint":
			if uint64(rec["seq"].(float64)) >= seq {
				return rec
			}
		case "error":
			t.Fatalf("stream errored before checkpoint %d: %v", seq, rec)
		}
	}
}

// postChanges applies a batch of changes through the feed endpoint.
func postChanges(t *testing.T, ts *httptest.Server, name string, changes []feed.Change) ChangesResponse {
	t.Helper()
	var body bytes.Buffer
	for _, c := range changes {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(b)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/relations/"+name+"/changes", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorRecord
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("changes: status %d (%+v)", resp.StatusCode, e)
	}
	var cr ChangesResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// queryPairs runs a fresh one-shot query and returns its result-pair set —
// the oracle a live subscription's net set is compared against.
func queryPairs(t *testing.T, ts *httptest.Server, q string) map[pair]bool {
	t.Helper()
	resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle query: status %d", resp.StatusCode)
	}
	recs := decodeNDJSON(t, resp.Body)
	last := recs[len(recs)-1]
	if last["type"] != "stats" || last["error"] != nil {
		t.Fatalf("oracle stats trailer = %v", last)
	}
	out := map[pair]bool{}
	for _, rec := range recs[1 : len(recs)-1] {
		out[pair{int64(rec["leftId"].(float64)), int64(rec["rightId"].(float64))}] = true
	}
	return out
}

// TestSubscribeDifferential is the tentpole's end-to-end pin: a live
// subscription's net result set — initial snapshot plus every result/retract
// up to a checkpoint — must equal a fresh engine run over the then-current
// catalog snapshot, after every prefix of a randomized insert/delete stream.
func TestSubscribeDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})

	run := sub.next(t)
	if run["type"] != "run" || run["engine"] != "live" {
		t.Fatalf("head record = %v", run)
	}
	if ex := execObj(t, run); ex["workers"] != nil {
		t.Fatalf("live run granted workers: %v", ex)
	}

	net := map[pair]bool{}
	cp := sub.drainTo(t, 0, net) // snapshot checkpoint: seq = max side version
	if want := queryPairs(t, ts, tinyQuery); len(net) != len(want) {
		t.Fatalf("snapshot net set has %d pairs, oracle %d", len(net), len(want))
	}
	_ = cp

	// Mirror of the catalog contents, for generating valid deletes.
	ids := map[string][]int64{"L": {1, 2, 3}, "R": {1, 2, 3}}
	rng := rand.New(rand.NewPCG(42, 7))
	nextID := int64(100)

	for round := 0; round < 12; round++ {
		rel := []string{"L", "R"}[rng.IntN(2)]
		var batch []feed.Change
		for n := 1 + rng.IntN(3); n > 0; n-- {
			if rng.Float64() < 0.4 && len(ids[rel]) > 1 {
				i := rng.IntN(len(ids[rel]))
				batch = append(batch, feed.Change{Relation: rel, Op: feed.OpDelete, ID: ids[rel][i]})
				ids[rel] = append(ids[rel][:i], ids[rel][i+1:]...)
			} else {
				c := feed.Change{
					Relation: rel, Op: feed.OpInsert, ID: nextID,
					Vals:    []float64{float64(rng.IntN(25)), float64(rng.IntN(10))},
					JoinKey: int64(1 + rng.IntN(2)),
				}
				nextID++
				batch = append(batch, c)
				ids[rel] = append(ids[rel], c.ID)
			}
		}
		cr := postChanges(t, ts, rel, batch)
		if cr.Applied != len(batch) {
			t.Fatalf("round %d: applied %d of %d changes", round, cr.Applied, len(batch))
		}
		cp := sub.drainTo(t, cr.LastSeq, net)
		if live := int(cp["live"].(float64)); live != len(net) {
			t.Fatalf("round %d: checkpoint live=%d, client net set %d", round, live, len(net))
		}
		want := queryPairs(t, ts, tinyQuery)
		if len(want) != len(net) {
			t.Fatalf("round %d: net set %v, oracle %v", round, net, want)
		}
		for p := range want {
			if !net[p] {
				t.Fatalf("round %d: oracle pair %v missing from net set", round, p)
			}
		}
	}
}

// TestSubscribeRelationDropTerminates pins the catalog-mutation race: a
// DELETE of a subscribed relation must terminate the stream with a
// relation_dropped error record — not hang it, and not leave it serving a
// stale snapshot.
func TestSubscribeRelationDropTerminates(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	net := map[pair]bool{}
	if run := sub.next(t); run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	sub.drainTo(t, 0, net)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/relations/R", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	for {
		rec := sub.next(t)
		if rec == nil {
			t.Fatalf("stream ended without a terminal error record")
		}
		if rec["type"] != "error" {
			continue
		}
		if rec["code"] != errRelationDropped || rec["message"] == "" {
			t.Fatalf("terminal record = %v, want code relation_dropped", rec)
		}
		break
	}
	if rec := sub.next(t); rec != nil {
		t.Fatalf("stream kept going after the terminal error: %v", rec)
	}
	// The run log records the subscription as failed, with the live engine.
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := srv.runlog.list()
		if len(recs) > 0 && recs[0].Engine == "live" && recs[0].Outcome == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no failed live run record: %+v", recs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeSurvivesUnrelatedMutations pins the other half of the race:
// catalog version bumps on relations the subscription does not read must not
// evict its resident state or terminate it — and a wholesale replacement of
// a subscribed relation must.
func TestSubscribeSurvivesUnrelatedMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	net := map[pair]bool{}
	if run := sub.next(t); run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	sub.drainTo(t, 0, net)

	// Register and then replace an unrelated relation: two version bumps,
	// one replaced event — none of it for L or R.
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/X",
			bytes.NewReader([]byte(tinyLeftCSV)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload X: status %d", resp.StatusCode)
		}
	}

	// The subscription must still be live and still maintaining: an insert
	// into L flows through to a checkpoint, proving the resident state was
	// not evicted by the unrelated version bumps.
	cr := postChanges(t, ts, "L", []feed.Change{
		{Relation: "L", Op: feed.OpInsert, ID: 500, Vals: []float64{1, 1}, JoinKey: 1},
	})
	sub.drainTo(t, cr.LastSeq, net)
	if want := queryPairs(t, ts, tinyQuery); len(want) != len(net) {
		t.Fatalf("after unrelated mutations: net set %d pairs, oracle %d", len(net), len(want))
	}

	// Replacing a subscribed relation wholesale diverges the snapshot beyond
	// incremental repair: the stream must terminate with relation_replaced.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/L",
		bytes.NewReader([]byte(tinyLeftCSV)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for {
		rec := sub.next(t)
		if rec == nil {
			t.Fatalf("stream ended without a terminal error record")
		}
		if rec["type"] == "error" {
			if rec["code"] != errRelationReplaced {
				t.Fatalf("terminal record = %v, want code relation_replaced", rec)
			}
			break
		}
	}
}

// subscribeTiny opens a subscription to tinyQuery and drains its snapshot,
// returning the stream, its run id and its net result set.
func subscribeTiny(t *testing.T, ts *httptest.Server) (*subStream, string, map[pair]bool) {
	t.Helper()
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	run := sub.next(t)
	if run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	net := map[pair]bool{}
	sub.drainTo(t, 0, net)
	return sub, run["id"].(string), net
}

// requireFreshQuery fails unless net is the result set of a fresh
// /v1/query run of tinyQuery.
func requireFreshQuery(t *testing.T, ts *httptest.Server, what string, net map[pair]bool) {
	t.Helper()
	want := queryPairs(t, ts, tinyQuery)
	if len(want) != len(net) {
		t.Fatalf("%s: net set %v, fresh query %v", what, net, want)
	}
	for p := range want {
		if !net[p] {
			t.Fatalf("%s: pair %v of the fresh query missing from the net set", what, p)
		}
	}
}

// insertL posts one insert into L and returns its catalog seq.
func insertL(t *testing.T, ts *httptest.Server, id int64, vals ...float64) uint64 {
	t.Helper()
	return postChanges(t, ts, "L", []feed.Change{
		{Relation: "L", Op: feed.OpInsert, ID: id, Vals: vals, JoinKey: 1},
	}).LastSeq
}

// requireFailedRun waits for the run log to record the run as a failed live
// run whose error names fault.
func requireFailedRun(t *testing.T, srv *Server, id, fault string) {
	t.Helper()
	waitFor(t, "the failed run record", func() bool {
		for _, rr := range srv.runlog.list() {
			if rr.ID == id {
				return rr.Engine == "live" && rr.Outcome == "failed" && strings.Contains(rr.Error, fault)
			}
		}
		return false
	})
}

// requireTerminalInternal reads the doomed stream's next record, which must
// be a terminal internal error naming fault, and then the stream's end.
func requireTerminalInternal(t *testing.T, doomed *subStream, fault string) {
	t.Helper()
	rec := doomed.next(t)
	if rec == nil || rec["type"] != "error" || rec["code"] != errInternal ||
		!strings.Contains(rec["message"].(string), fault) {
		t.Fatalf("record after the fault = %v, want a terminal internal error", rec)
	}
	if rec := doomed.next(t); rec != nil {
		t.Fatalf("stream kept going after the terminal error: %v", rec)
	}
}

// TestPanickingSubscriptionIsContained: a panic while a subscription applies
// a change ends that subscription only — a terminal internal error record, a
// failed run-log entry, its slot back — while a second subscription on the
// same catalog keeps streaming a net result set equal to a fresh /v1/query.
func TestPanickingSubscriptionIsContained(t *testing.T) {
	var doomedID atomic.Value // run id of the subscription whose applies panic
	applyHook = func(runID string) {
		if runID == doomedID.Load() {
			panic("injected apply fault")
		}
	}
	t.Cleanup(func() { applyHook = nil }) // runs after the server has closed
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 2})

	doomed, id, _ := subscribeTiny(t, ts)
	survivor, _, net := subscribeTiny(t, ts)
	doomedID.Store(id)
	seq := insertL(t, ts, 500, 1, 1)

	requireTerminalInternal(t, doomed, "injected apply fault")
	requireFailedRun(t, srv, id, "injected apply fault")

	survivor.drainTo(t, seq, net)
	requireFreshQuery(t, ts, "after the fault", net)
	survivor.drainTo(t, insertL(t, ts, 501, 0, 0), net)
	requireFreshQuery(t, ts, "after a further change", net)

	// The doomed subscription's slot is free again: of two slots, the
	// survivor holds one, so a new subscription is admitted only if the
	// doomed one gave its slot back.
	waitForStats(t, srv, "the doomed subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 1 })
	third, _, _ := subscribeTiny(t, ts)
	survivor.resp.Body.Close()
	third.resp.Body.Close()
	waitForStats(t, srv, "every subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 0 })
}

// TestPanickingSnapshotIsContained: a panic while a subscription builds its
// snapshot ends that subscription only — its run record, then a terminal
// internal error record, a failed run-log entry, the live gauge and its slot
// back — while a subscription already streaming on the same catalog keeps
// maintaining a net result set equal to a fresh /v1/query.
func TestPanickingSnapshotIsContained(t *testing.T) {
	var armed atomic.Bool // the next snapshot build or apply panics
	applyHook = func(string) {
		if armed.CompareAndSwap(true, false) {
			panic("injected snapshot fault")
		}
	}
	t.Cleanup(func() { applyHook = nil }) // runs after the server has closed
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 2})

	survivor, _, net := subscribeTiny(t, ts)
	armed.Store(true)
	doomed := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	run := doomed.next(t)
	if run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	requireTerminalInternal(t, doomed, "injected snapshot fault")
	requireFailedRun(t, srv, run["id"].(string), "injected snapshot fault")
	waitForStats(t, srv, "the doomed subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 1 })

	survivor.drainTo(t, insertL(t, ts, 500, 1, 1), net)
	requireFreshQuery(t, ts, "after the fault", net)

	// Of two slots the survivor holds one, so a new subscription is
	// admitted only if the doomed one gave its slot back.
	third, _, _ := subscribeTiny(t, ts)
	survivor.resp.Body.Close()
	third.resp.Body.Close()
	waitForStats(t, srv, "every subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 0 })
}

// TestSubscribeValidation covers the subscribe-specific reject paths and the
// feed endpoint's error mapping.
func TestSubscribeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(req QueryRequest) (int, errorRecord) {
		t.Helper()
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorRecord
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	for _, c := range []struct {
		name string
		req  QueryRequest
		code string
	}{
		{"trace", QueryRequest{Query: tinyQuery, Trace: true}, errBadRequest},
		{"limit", QueryRequest{Query: tinyQuery, Limit: 5}, errBadRequest},
		{"engine", QueryRequest{Query: tinyQuery, Engine: "progxe"}, errUnknownEngine},
		{"missing relation", QueryRequest{Query: `SELECT (A.x + B.y) AS s FROM Nope A, R B WHERE A.k = B.k PREFERRING LOWEST(s)`}, errRelationNotFound},
	} {
		status, e := post(c.req)
		if status/100 != 4 || e.Code != c.code {
			t.Fatalf("%s: status %d code %q, want 4xx %q", c.name, status, e.Code, c.code)
		}
	}

	// Feed endpoint validation: bad line, wrong relation, unknown id.
	for _, c := range []struct {
		name, body, code string
		status           int
	}{
		{"bad line", "nonsense\n", errBadChange, http.StatusBadRequest},
		{"wrong relation", `{"op":"insert","relation":"R","id":9,"vals":[1,2],"joinKey":1}` + "\n", errBadChange, http.StatusBadRequest},
		{"unknown id", `{"op":"delete","id":999}` + "\n", errBadChange, http.StatusBadRequest},
		{"unknown relation", "", errRelationNotFound, http.StatusNotFound},
	} {
		path := "/v1/relations/L/changes"
		body := c.body
		if c.name == "unknown relation" {
			path = "/v1/relations/Nope/changes"
			body = `{"op":"insert","id":1,"vals":[1,2],"joinKey":1}` + "\n"
		}
		resp, err := http.Post(ts.URL+path, "application/x-ndjson", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e errorRecord
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.status || e.Type != "error" || e.Code != c.code {
			t.Fatalf("%s: status %d envelope %+v, want %d %q", c.name, resp.StatusCode, e, c.status, c.code)
		}
	}
}

// TestSubscribeMetrics checks the subscription counters move: live gauges up
// while attached and down after detach, changes and retractions accumulate.
func TestSubscribeMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	net := map[pair]bool{}
	if run := sub.next(t); run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
	sub.drainTo(t, 0, net)
	if st := srv.Stats(); st.SubscriptionsLive != 1 || st.SubscriptionsStarted != 1 {
		t.Fatalf("live=%d started=%d, want 1/1", st.SubscriptionsLive, st.SubscriptionsStarted)
	}

	// A dominating insert retracts everything it beats.
	cr := postChanges(t, ts, "L", []feed.Change{
		{Relation: "L", Op: feed.OpInsert, ID: 900, Vals: []float64{0, 0}, JoinKey: 1},
	})
	sub.drainTo(t, cr.LastSeq, net)

	sub.resp.Body.Close() // client detaches
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.SubscriptionsLive == 0 {
			if st.SubscriptionChangesApplied < 1 {
				t.Fatalf("changesApplied = %d, want >= 1", st.SubscriptionChangesApplied)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription never detached: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeStagingFailureIsStructured pins that everything which can fail
// while the output space is built fails before the response is committed: a
// relation whose mapped outputs overflow yields the structured 4xx body, not
// a 200 stream that breaks off, and the slot it held is free again.
func TestSubscribeStagingFailureIsStructured(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 1})
	for name, csv := range map[string]string{
		"HL": "id,price,speed,region\n1,1.7e308,5,1\n2,3,4,1\n",
		"HR": "id,cost,delay,region\n1,1.7e308,2,1\n2,1,1,1\n",
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/"+name, bytes.NewReader([]byte(csv)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
	q := `SELECT (L.price + R.cost) AS total, (L.speed + R.delay) AS lag
		FROM HL L, HR R WHERE L.region = R.region PREFERRING LOWEST(total) AND LOWEST(lag)`
	b, _ := json.Marshal(QueryRequest{Query: q})
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorRecord
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Type != "error" || e.Code != errBadQuery || e.Message == "" {
		t.Fatalf("status %d body %+v, want 400 %s", resp.StatusCode, e, errBadQuery)
	}
	if st := srv.Stats(); st.SubscriptionsStarted != 0 {
		t.Fatalf("a subscription that never staged was counted as started: %+v", st)
	}
	// The only slot is free: a good subscription is admitted.
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	if run := sub.next(t); run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
}

// TestOverBoundQueryIsRefused sends a 22-attribute PREFERRING query, whose
// output grid (2²² cells, both the batch engine's and the live one's) is
// past grid.MaxCells: /v1/query and /v1/subscribe answer 400 bad_query with
// a message naming the grid's cell count and the bound, stream no record,
// and start no run.
func TestOverBoundQueryIsRefused(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var sel, pref []string
	for i := 0; i < 22; i++ {
		sel = append(sel, fmt.Sprintf("(L.price + R.cost + %d) AS x%d", i, i))
		pref = append(pref, fmt.Sprintf("LOWEST(x%d)", i))
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM L L, R R WHERE L.region = R.region PREFERRING " + strings.Join(pref, " AND ")
	for _, path := range []string{"/v1/query", "/v1/subscribe"} {
		b, _ := json.Marshal(QueryRequest{Query: q})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e errorRecord
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != errBadQuery ||
			!strings.Contains(e.Message, "4194304 cells") || !strings.Contains(e.Message, "2097152") {
			t.Fatalf("%s: status %d body %s, want 400 %s naming 4194304 cells and the 2097152 bound", path, resp.StatusCode, body, errBadQuery)
		}
	}
	if st := srv.Stats(); st.RunsStarted != 0 || st.SubscriptionsStarted != 0 {
		t.Fatalf("refused queries started %d runs and %d subscriptions", st.RunsStarted, st.SubscriptionsStarted)
	}
}

// TestSubscribeVanishedClientReleasesSlot closes the connection right after
// the response header, while the snapshot is still being streamed: the
// subscription must notice, end, and hand back its slot.
func TestSubscribeVanishedClientReleasesSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 1})
	for i, name := range []string{"BigR", "BigT"} {
		b, _ := json.Marshal(GenerateRequest{
			Name: name, Rows: 3000, Dims: 3, Distribution: "anti-correlated", Selectivity: 0.005, Seed: uint64(31 + i),
		})
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("generate %s: status %d", name, resp.StatusCode)
		}
	}
	q := `SELECT (R.a0 + T.a0) AS x, (R.a1 + T.a1) AS y, (R.a2 + T.a2) AS z
		FROM BigR R, BigT T WHERE R.jkey = T.jkey PREFERRING LOWEST(x) AND LOWEST(y) AND LOWEST(z)`
	b, _ := json.Marshal(QueryRequest{Query: q})
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	resp.Body.Close() // vanish with the snapshot in flight

	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().SubscriptionsLive != 0 || len(srv.runlog.list()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription outlived its client: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec := srv.runlog.list()[0]
	if rec.Engine != "live" || rec.Outcome != "canceled" || rec.Reason != "disconnect" {
		t.Fatalf("run record = %+v, want a canceled live run", rec)
	}
	if rec.StageMillis <= 0 || rec.SnapshotMillis < rec.StageMillis || rec.ElapsedMillis < rec.SnapshotMillis {
		t.Fatalf("run record timings: stage %v snapshot %v elapsed %v", rec.StageMillis, rec.SnapshotMillis, rec.ElapsedMillis)
	}
	sub := openSubscribe(t, ts, QueryRequest{Query: tinyQuery})
	if run := sub.next(t); run["type"] != "run" {
		t.Fatalf("head record = %v", run)
	}
}

// TestSubscribeEndVisibleAfterSlotRelease pins the order of a
// subscription's end: once its client can see the end — the /v1/runs record
// and subscriptionsLive back at 0 — the slot is free, so an immediate
// resubscribe on a one-slot server is admitted, cycle after cycle.
func TestSubscribeEndVisibleAfterSlotRelease(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 1})
	b, _ := json.Marshal(QueryRequest{Query: tinyQuery})
	cycles := 500
	if testing.Short() {
		cycles = 100
	}
	last := ""
	for i := 0; i < cycles; i++ {
		resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // vanish
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: resubscribe after a visible end: status %d", i, resp.StatusCode)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if recs := srv.runlog.list(); len(recs) > 0 && recs[0].ID != last && srv.Stats().SubscriptionsLive == 0 {
				last = recs[0].ID
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: subscription never ended: %+v", i, srv.Stats())
			}
			runtime.Gosched()
		}
	}
}
