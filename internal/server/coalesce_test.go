package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progxe/internal/core"
	"progxe/internal/engines"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// streamLine is the union of the stream record shapes, for assertions.
type streamLine struct {
	Type        string     `json:"type"`
	ID          string     `json:"id"`
	Cached      bool       `json:"cached"`
	Seq         int        `json:"seq"`
	LeftID      int64      `json:"leftId"`
	RightID     int64      `json:"rightId"`
	Out         []float64  `json:"out"`
	Results     int        `json:"results"`
	Subscribers int        `json:"subscribers"`
	Canceled    bool       `json:"canceled"`
	Reason      string     `json:"reason"`
	Error       string     `json:"error"`
	Phases      obs.Report `json:"phases"`
}

// parseStream splits an NDJSON body into typed records.
func parseStream(t *testing.T, body []byte) []streamLine {
	t.Helper()
	var out []streamLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

// resultKey reduces a result record to its run-invariant identity (the
// elapsed timestamp legitimately varies between runs).
func resultKey(l streamLine) string {
	return fmt.Sprintf("%d|%d|%d|%v", l.Seq, l.LeftID, l.RightID, l.Out)
}

// resultKeys extracts the run-invariant result sequence of a stream.
func resultKeys(lines []streamLine) []string {
	var keys []string
	for _, l := range lines {
		if l.Type == "result" {
			keys = append(keys, resultKey(l))
		}
	}
	return keys
}

// statsLine returns the stream's stats trailer.
func statsLine(t *testing.T, lines []streamLine) streamLine {
	t.Helper()
	for _, l := range lines {
		if l.Type == "stats" {
			return l
		}
	}
	t.Fatal("stream has no stats record")
	return streamLine{}
}

// setupMillis sums the phases a cached plan skips.
func setupMillis(rep obs.Report) float64 {
	var ms float64
	for _, ph := range rep.Phases {
		switch ph.Phase {
		case "partition", "region-build", "prune":
			ms += ph.SequencerMillis + ph.WorkerMillis
		}
	}
	return ms
}

// generateRelation registers a deterministic synthetic relation through the
// HTTP API, so separate servers seeded identically hold identical data.
func generateRelation(t *testing.T, ts *httptest.Server, name string, rows, seed int) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"rows":%d,"dims":2,"distribution":"anti-correlated","selectivity":0.05,"seed":%d}`, name, rows, seed)
	resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate %s: status %d", name, resp.StatusCode)
	}
}

const genQuery = `SELECT (A.a0 + B.a0) AS x, (A.a1 + B.a1) AS y
	FROM A A, B B WHERE A.jkey = B.jkey
	PREFERRING LOWEST(x) AND LOWEST(y)`

// runQueryBody posts a query and returns (status, body).
func runQueryBody(t *testing.T, ts *httptest.Server, req QueryRequest) (int, []byte) {
	t.Helper()
	resp := postQuery(t, ts, req)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitFor polls until cond holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPlanCacheHitSkipsSetup proves the tentpole's cache contract on the
// solo path: a repeated query reports cached=true, spends ≈0 ms in the
// partition / region-build / prune phases, and streams the same results.
func TestPlanCacheHitSkipsSetup(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	status, body1 := runQueryBody(t, ts, QueryRequest{Query: genQuery})
	if status != http.StatusOK {
		t.Fatalf("first run: status %d (%s)", status, body1)
	}
	lines1 := parseStream(t, body1)
	if head := lines1[0]; head.Type != "run" || head.Cached {
		t.Fatalf("first run head = %+v, want uncached run record", head)
	}
	stats1 := statsLine(t, lines1)
	if stats1.Cached {
		t.Fatal("first run reported cached=true")
	}

	status, body2 := runQueryBody(t, ts, QueryRequest{Query: genQuery})
	if status != http.StatusOK {
		t.Fatalf("second run: status %d (%s)", status, body2)
	}
	lines2 := parseStream(t, body2)
	if head := lines2[0]; !head.Cached {
		t.Fatalf("second run head = %+v, want cached=true", head)
	}
	stats2 := statsLine(t, lines2)
	if !stats2.Cached {
		t.Fatal("second run stats lacked cached=true")
	}
	if ms := setupMillis(stats2.Phases); ms != 0 {
		t.Fatalf("cache-hit run spent %.3f ms in partition/region-build/prune, want 0", ms)
	}
	if stats2.Results == 0 {
		t.Fatal("cache-hit run streamed no results")
	}

	k1, k2 := resultKeys(lines1), resultKeys(lines2)
	if len(k1) != len(k2) {
		t.Fatalf("result count diverged: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("result %d diverged:\ncold %s\nhot  %s", i, k1[i], k2[i])
		}
	}

	st := srv.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("plan cache counters = %d misses / %d hits, want 1/1", st.PlanCacheMisses, st.PlanCacheHits)
	}
}

// TestPlanCacheInvalidationMatrix is the cache-invalidation battery:
// mutating a relation makes the next identical query miss (new catalog
// version → new key), re-repeating hits again, and the hit/miss counters
// reconcile with the request history exactly.
func TestPlanCacheInvalidationMatrix(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	run := func(wantCached bool, step string) []string {
		t.Helper()
		status, body := runQueryBody(t, ts, QueryRequest{Query: tinyQuery})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", step, status, body)
		}
		lines := parseStream(t, body)
		if st := statsLine(t, lines); st.Cached != wantCached {
			t.Fatalf("%s: cached=%v, want %v", step, st.Cached, wantCached)
		}
		return resultKeys(lines)
	}
	upload := func(csv string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/L", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("re-upload: status %d", resp.StatusCode)
		}
	}

	before := run(false, "cold run")
	run(true, "warm run")

	// Mutate L: same schema, different prices — the cached plan is stale.
	upload("id,price,speed,region\n1,100,5,1\n2,200,1,1\n3,50,9,2\n")
	after := run(false, "post-mutation run")
	run(true, "post-mutation warm run")

	if fmt.Sprint(before) == fmt.Sprint(after) {
		t.Fatal("results unchanged after relation mutation — stale plan served")
	}

	// Re-uploading identical bytes still bumps the version: snapshot
	// identity, not content equality, keys the cache.
	upload("id,price,speed,region\n1,100,5,1\n2,200,1,1\n3,50,9,2\n")
	same := run(false, "post-identical-reupload run")
	if fmt.Sprint(same) != fmt.Sprint(after) {
		t.Fatal("identical re-upload changed results")
	}

	st := srv.Stats()
	if st.PlanCacheMisses != 3 || st.PlanCacheHits != 2 {
		t.Fatalf("counters = %d misses / %d hits, want 3/2", st.PlanCacheMisses, st.PlanCacheHits)
	}
	if got := st.PlanCacheMisses + st.PlanCacheHits; got != st.RunsStarted {
		t.Fatalf("cache consultations (%d) != runs started (%d)", got, st.RunsStarted)
	}
}

// TestInFlightRunSurvivesMutation pins the snapshot contract: a run blocked
// mid-stream keeps its admission-time relation snapshot when the catalog
// entry is replaced under it, and completes cleanly.
func TestInFlightRunSurvivesMutation(t *testing.T) {
	g := newGatedEngine()
	_, ts := newTestServer(t, Config{
		NewEngine: func(name string, opts core.Options) (smj.Engine, error) { return g, nil },
	})

	type res struct {
		status int
		body   []byte
	}
	done := make(chan res, 1)
	go func() {
		status, body := runQueryBody(t, ts, QueryRequest{Query: tinyQuery})
		done <- res{status, body}
	}()
	<-g.emitted

	// Replace L mid-run.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/relations/L", strings.NewReader("id,price,speed,region\n9,1,1,1\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(g.proceed)

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight run: status %d", r.status)
	}
	st := statsLine(t, parseStream(t, r.body))
	if st.Canceled || st.Error != "" || st.Results != 2 {
		t.Fatalf("in-flight run ended %+v, want clean completion with 2 results", st)
	}
}

// throttledEngine wraps a real engine for coalescing tests: it can hold the
// run at the start (so subscribers attach deterministically), pace
// emissions, and block after a fixed number of results.
type throttledEngine struct {
	inner      smj.ContextEngine
	runs       *atomic.Int64
	release    chan struct{} // run waits here before its first emission
	perResult  time.Duration
	blockAfter int           // >0: stop emitting and wait for unblock
	blocked    chan struct{} // closed when blockAfter is reached
	unblock    chan struct{}
}

func (e *throttledEngine) Name() string { return e.inner.Name() }

func (e *throttledEngine) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return e.RunContext(context.Background(), p, sink)
}

func (e *throttledEngine) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	e.runs.Add(1)
	if e.release != nil {
		select {
		case <-e.release:
		case <-ctx.Done():
			return smj.Stats{}, ctx.Err()
		}
	}
	n := 0
	var once sync.Once
	wrapped := smj.SinkFunc(func(r smj.Result) {
		n++
		if e.perResult > 0 {
			time.Sleep(e.perResult)
		}
		sink.Emit(r)
		if e.blockAfter > 0 && n == e.blockAfter {
			once.Do(func() { close(e.blocked) })
			select {
			case <-e.unblock:
			case <-ctx.Done():
			}
		}
	})
	return e.inner.RunContext(ctx, p, wrapped)
}

// newThrottledSeam returns a Config.NewEngine seam wrapping the real
// registry engines in a shared throttledEngine shell.
func newThrottledSeam(te *throttledEngine) func(string, core.Options) (smj.Engine, error) {
	return func(name string, opts core.Options) (smj.Engine, error) {
		inner, err := engines.New(name, opts)
		if err != nil {
			return nil, err
		}
		shell := *te
		shell.inner = inner.(smj.ContextEngine)
		return &shell, nil
	}
}

// TestCoalescedSubscribersByteIdentical is the coalescing property test: N
// staggered subscribers of one query share exactly one engine run and read
// byte-identical streams, which in turn match an uncoalesced run of the
// same query on identically seeded data.
func TestCoalescedSubscribersByteIdentical(t *testing.T) {
	const subscribers = 16
	var runs atomic.Int64
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		CoalesceReplay: 1 << 16,
		NewEngine: newThrottledSeam(&throttledEngine{
			runs: &runs, release: release, perResult: 200 * time.Microsecond,
		}),
	})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	bodies := make([][]byte, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := runQueryBody(t, ts, QueryRequest{Query: genQuery})
			if status != http.StatusOK {
				t.Errorf("subscriber %d: status %d (%s)", i, status, body)
			}
			bodies[i] = body
		}(i)
		time.Sleep(time.Millisecond) // staggered attach
	}
	waitFor(t, "all subscribers attached", func() bool {
		return srv.Stats().CoalescedSubscribers >= subscribers
	})
	close(release)
	wg.Wait()

	for i := 1; i < subscribers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("subscriber %d stream diverged from subscriber 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	lines := parseStream(t, bodies[0])
	stats := statsLine(t, lines)
	if stats.Canceled || stats.Error != "" {
		t.Fatalf("coalesced run ended %+v, want clean completion", stats)
	}
	if stats.Subscribers != subscribers {
		t.Fatalf("stats.subscribers = %d, want %d", stats.Subscribers, subscribers)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical requests, want exactly 1", got, subscribers)
	}
	st := srv.Stats()
	if st.RunsStarted != 1 || st.CoalescedRuns != 1 || st.CoalescedSubscribers != subscribers {
		t.Fatalf("counters = started %d, coalesced %d, subscribers %d; want 1/1/%d",
			st.RunsStarted, st.CoalescedRuns, st.CoalescedSubscribers, subscribers)
	}

	// The shared stream must equal an uncoalesced run over identical data.
	_, solo := newTestServer(t, Config{})
	generateRelation(t, solo, "A", 400, 1)
	generateRelation(t, solo, "B", 400, 2)
	status, soloBody := runQueryBody(t, solo, QueryRequest{Query: genQuery})
	if status != http.StatusOK {
		t.Fatalf("uncoalesced run: status %d", status)
	}
	ck, sk := resultKeys(lines), resultKeys(parseStream(t, soloBody))
	if len(ck) == 0 || len(ck) != len(sk) {
		t.Fatalf("result counts: coalesced %d, uncoalesced %d", len(ck), len(sk))
	}
	for i := range ck {
		if ck[i] != sk[i] {
			t.Fatalf("result %d diverged from uncoalesced run:\ncoalesced   %s\nuncoalesced %s", i, ck[i], sk[i])
		}
	}
}

// TestCoalescedRandomCancellation cancels a random subset of subscribers
// mid-stream: survivors still read complete, identical streams from the one
// shared run, and the run itself is only torn down when the last one leaves.
func TestCoalescedRandomCancellation(t *testing.T) {
	const subscribers = 12
	var runs atomic.Int64
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		CoalesceReplay: 1 << 16,
		NewEngine: newThrottledSeam(&throttledEngine{
			runs: &runs, release: release, perResult: time.Millisecond,
		}),
	})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	rng := rand.New(rand.NewSource(7))
	cancelIdx := map[int]bool{}
	for len(cancelIdx) < 5 {
		cancelIdx[rng.Intn(subscribers)] = true
	}

	bodies := make([][]byte, subscribers)
	canceled := make([]bool, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if cancelIdx[i] {
				canceled[i] = true
				ctx, cancel = context.WithCancel(ctx)
				// Cancel mid-stream, while the paced run is still emitting.
				timer := time.AfterFunc(30*time.Millisecond, cancel)
				defer timer.Stop()
				defer cancel()
			}
			b, err := json.Marshal(QueryRequest{Query: genQuery})
			if err != nil {
				t.Error(err)
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if !cancelIdx[i] {
					t.Errorf("subscriber %d: %v", i, err)
				}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil && !cancelIdx[i] {
				t.Errorf("subscriber %d read: %v", i, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	waitFor(t, "all subscribers attached", func() bool {
		return srv.Stats().CoalescedSubscribers >= subscribers
	})
	close(release)
	wg.Wait()

	var survivor []byte
	for i := 0; i < subscribers; i++ {
		if canceled[i] {
			continue
		}
		if survivor == nil {
			survivor = bodies[i]
			stats := statsLine(t, parseStream(t, survivor))
			if stats.Canceled || stats.Error != "" || stats.Results == 0 {
				t.Fatalf("survivor stream ended %+v, want clean completion", stats)
			}
			continue
		}
		if !bytes.Equal(survivor, bodies[i]) {
			t.Fatalf("survivor %d stream diverged", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times, want 1 — cancellations must not restart the shared run", got)
	}
}

// TestCoalesceReplayTruncation bounds the replay buffer: a subscriber that
// attaches after the ring has evicted the stream head is rejected with 503
// instead of stalling the shared run, and the truncation is counted.
func TestCoalesceReplayTruncation(t *testing.T) {
	var runs atomic.Int64
	blocked := make(chan struct{})
	unblock := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		// The ring keeps 16 records; the run emits 24 paced results before
		// blocking, so the head is evicted while the leader (drained, paced)
		// stays within the window.
		CoalesceReplay: 16,
		NewEngine: newThrottledSeam(&throttledEngine{
			runs: &runs, blockAfter: 24, blocked: blocked, unblock: unblock,
			perResult: 2 * time.Millisecond,
		}),
	})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	type res struct {
		status int
		body   []byte
	}
	leaderDone := make(chan res, 1)
	go func() {
		status, body := runQueryBody(t, ts, QueryRequest{Query: genQuery})
		leaderDone <- res{status, body}
	}()
	<-blocked // ≥ 8 records published; ring holds only the last 2

	status, body := runQueryBody(t, ts, QueryRequest{Query: genQuery})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("late subscriber: status %d (%s), want 503", status, body)
	}
	if !bytes.Contains(body, []byte("replay buffer truncated")) {
		t.Fatalf("late subscriber error = %s, want truncated-replay", body)
	}

	close(unblock)
	r := <-leaderDone
	if r.status != http.StatusOK {
		t.Fatalf("leader: status %d", r.status)
	}
	if st := statsLine(t, parseStream(t, r.body)); st.Canceled || st.Error != "" {
		t.Fatalf("leader stream ended %+v, want clean completion — the slow subscriber must not poison the run", st)
	}
	if st := srv.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("replayTruncated = %d, want 1", st.ReplayTruncated)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times, want 1", got)
	}
}

// TestCoalesceBypassesAdmissionForSubscribers: with one run slot and
// coalescing on, identical queries attach to the in-flight run instead of
// being shed, while a different query still gets 429 — subscribers cost a
// cursor, not a slot.
func TestCoalesceBypassesAdmission(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		MaxConcurrentRuns: 1,
		CoalesceReplay:    1 << 16,
		NewEngine: newThrottledSeam(&throttledEngine{
			runs: &runs, release: release,
		}),
	})
	generateRelation(t, ts, "A", 200, 1)
	generateRelation(t, ts, "B", 200, 2)

	const n = 4
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = runQueryBody(t, ts, QueryRequest{Query: genQuery})
		}(i)
	}
	waitFor(t, "all identical queries attached", func() bool {
		return srv.Stats().CoalescedSubscribers >= n
	})

	// A different key (distinct limit) needs its own slot: shed with 429.
	status, _ := runQueryBody(t, ts, QueryRequest{Query: genQuery, Limit: 1})
	if status != http.StatusTooManyRequests {
		t.Fatalf("distinct query during coalesced run: status %d, want 429", status)
	}

	close(release)
	wg.Wait()
	for i, s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("identical query %d: status %d, want 200 (coalesced, not shed)", i, s)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times, want 1", got)
	}
}

// TestTraceBypassesCoalescing: trace requests must run privately even with
// coalescing on — a trace documents one complete run, including the setup
// phases a cached plan would skip.
func TestTraceBypassesCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Config{CoalesceReplay: 1 << 16})

	for i := 0; i < 2; i++ {
		status, body := runQueryBody(t, ts, QueryRequest{Query: tinyQuery, Trace: true})
		if status != http.StatusOK {
			t.Fatalf("trace run %d: status %d", i, status)
		}
		if st := statsLine(t, parseStream(t, body)); st.Cached {
			t.Fatalf("trace run %d served from plan cache", i)
		}
	}
	st := srv.Stats()
	if st.CoalescedRuns != 0 || st.PlanCacheHits != 0 {
		t.Fatalf("trace runs touched cache/coalescer: %+v", st)
	}
}
