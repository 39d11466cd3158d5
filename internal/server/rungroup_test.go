package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progxe/internal/baseline"
	"progxe/internal/core"
	"progxe/internal/engines"
	"progxe/internal/query"
	"progxe/internal/smj"
)

var elapsedField = regexp.MustCompile(`,"elapsedMillis":[^,}]+`)

// resultLines returns the stream's result records as raw JSON, the one
// run-variant member (elapsedMillis) stripped. SSE bodies contribute their
// data: payloads.
func resultLines(body []byte) []string {
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimPrefix(line, "data: ")
		if strings.HasPrefix(line, `{"type":"result"`) {
			out = append(out, elapsedField.ReplaceAllString(line, ""))
		}
	}
	return out
}

// TestLoneRequestMatchesSharedRun pins the one execution path from both
// ends: a lone request's result lines equal those of every subscriber of a
// 16-way burst of the same request, in NDJSON and in SSE, and as a set they
// are the reference plan's answer.
func TestLoneRequestMatchesSharedRun(t *testing.T) {
	const burst = 16
	var runs atomic.Int64
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		NewEngine: newThrottledSeam(&throttledEngine{runs: &runs, release: release}),
	})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	left, _ := srv.Catalog().Get("A")
	right, _ := srv.Catalog().Get("B")
	q, err := query.Parse(genQuery)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Compile(left, right)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range oracle {
		want = append(want, fmt.Sprintf("%d|%d|%v", r.LeftID, r.RightID, r.Out))
	}
	sort.Strings(want)

	for _, format := range []string{"ndjson", "sse"} {
		t.Run(format, func(t *testing.T) {
			req := QueryRequest{Query: genQuery, Format: format}
			before := srv.Stats()

			bodies := make([][]byte, burst)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var status int
					if status, bodies[i] = runQueryBody(t, ts, req); status != http.StatusOK {
						t.Errorf("subscriber %d: status %d (%s)", i, status, bodies[i])
					}
				}()
			}
			waitFor(t, "the burst to attach", func() bool {
				return srv.Stats().CoalescedSubscribers-before.CoalescedSubscribers >= burst
			})
			release <- struct{}{}
			wg.Wait()

			// The run is over and deregistered: the same request now runs alone.
			go func() { release <- struct{}{} }()
			status, lone := runQueryBody(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("lone request: status %d (%s)", status, lone)
			}
			if got := srv.Stats().RunsStarted - before.RunsStarted; got != 2 {
				t.Fatalf("burst + lone request started %d runs, want 2", got)
			}

			loneLines := resultLines(lone)
			if len(loneLines) != len(oracle) {
				t.Fatalf("lone request streamed %d results, oracle has %d", len(loneLines), len(oracle))
			}
			for i, b := range bodies {
				if !slices.Equal(resultLines(b), loneLines) {
					t.Fatalf("subscriber %d's result lines differ from the lone request's", i)
				}
			}
			if format == "sse" {
				return // the NDJSON leg already held the lines against the oracle
			}
			var got []string
			for _, l := range parseStream(t, lone) {
				if l.Type == "result" {
					got = append(got, fmt.Sprintf("%d|%d|%v", l.LeftID, l.RightID, l.Out))
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("lone request's result set differs from the oracle's")
			}
			if st := statsLine(t, parseStream(t, lone)); st.Subscribers != 1 {
				t.Fatalf("lone request's stats.subscribers = %d, want 1", st.Subscribers)
			}
		})
	}
}

// TestTraceRunIsPrivate: concurrent trace requests each lead their own run
// and get their own trace document, and an identical untraced request in
// flight beside them attaches to neither.
func TestTraceRunIsPrivate(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		NewEngine: newThrottledSeam(&throttledEngine{runs: &runs, release: release}),
	})
	reqs := []QueryRequest{
		{Query: tinyQuery, Trace: true},
		{Query: tinyQuery, Trace: true},
		{Query: tinyQuery},
	}
	bodies := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var status int
			if status, bodies[i] = runQueryBody(t, ts, req); status != http.StatusOK {
				t.Errorf("request %d: status %d (%s)", i, status, bodies[i])
			}
		}()
	}
	waitFor(t, "three runs in flight", func() bool { return runs.Load() == 3 })
	close(release)
	wg.Wait()

	ids := map[string]bool{}
	for i, body := range bodies {
		st := statsLine(t, parseStream(t, body))
		if st.Subscribers != 1 || st.Cached && reqs[i].Trace {
			t.Fatalf("request %d trailer = %+v, want a private uncached run", i, st)
		}
		runID := parseStream(t, body)[0].ID
		ids[runID] = true
		resp, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		doc, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantStatus := http.StatusNotFound
		if reqs[i].Trace {
			wantStatus = http.StatusOK
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("request %d (trace=%v): GET trace = %d, want %d", i, reqs[i].Trace, resp.StatusCode, wantStatus)
		}
		if reqs[i].Trace && !bytes.Contains(doc, []byte(`"ph"`)) {
			t.Fatalf("request %d: trace document has no events: %.200s", i, doc)
		}
	}
	if len(ids) != 3 {
		t.Fatalf("three requests reported %d distinct run ids, want 3", len(ids))
	}
	if st := srv.Stats(); st.RunsStarted != 3 || st.CoalescedRuns != 1 || st.CoalescedSubscribers != 1 {
		t.Fatalf("counters = started %d, coalesced %d, subscribers %d; want 3/1/1",
			st.RunsStarted, st.CoalescedRuns, st.CoalescedSubscribers)
	}
}

// panicEngine runs the real engine and panics inside the sink after k
// results — the shape of an engine bug surfacing mid-run.
type panicEngine struct {
	inner smj.ContextEngine
	after int
}

func (e *panicEngine) Name() string { return e.inner.Name() }

func (e *panicEngine) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return e.RunContext(context.Background(), p, sink)
}

func (e *panicEngine) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	n := 0
	return e.inner.RunContext(ctx, p, smj.SinkFunc(func(r smj.Result) {
		if n == e.after {
			panic("injected engine fault")
		}
		n++
		sink.Emit(r)
	}))
}

// TestPanickingRunIsContained: an engine panic ends its own run — k results,
// then a terminal internal error record, a failed run-log entry, the slot
// back — while a different query in flight beside it streams exactly what it
// streams on a quiet server, the process keeps answering, and no goroutine is
// left behind. A panic during leader set-up is a structured 500.
func TestPanickingRunIsContained(t *testing.T) {
	const k = 3
	var boomRuns, goodRuns atomic.Int64
	release := make(chan struct{})
	good := newThrottledSeam(&throttledEngine{runs: &goodRuns, release: release})
	srv, ts := newTestServer(t, Config{
		MaxConcurrentRuns: 2,
		CoalesceReplay:    DefaultCoalesceReplay, // as the binary runs
		NewEngine: func(name string, opts core.Options) (smj.Engine, error) {
			switch name {
			case "boom":
				boomRuns.Add(1)
				inner, err := engines.New("progxe", opts)
				return &panicEngine{inner: inner.(smj.ContextEngine), after: k}, err
			case "boom-setup":
				panic("injected set-up fault")
			}
			return good(name, opts)
		},
	})
	generateRelation(t, ts, "A", 400, 1)
	generateRelation(t, ts, "B", 400, 2)

	// The quiet reference, which also warms the client's connection pool.
	go func() { release <- struct{}{} }()
	_, quiet := runQueryBody(t, ts, QueryRequest{Query: genQuery})
	if len(resultLines(quiet)) <= k {
		t.Fatalf("fixture too small: %d results", len(resultLines(quiet)))
	}
	http.DefaultClient.CloseIdleConnections()
	ts.CloseClientConnections()
	idle := runtime.NumGoroutine()

	// The neighbour is provably in flight (held before its first emission)
	// while the faulty runs come and go.
	neighbour := make(chan []byte, 1)
	go func() {
		_, body := runQueryBody(t, ts, QueryRequest{Query: genQuery})
		neighbour <- body
	}()
	waitFor(t, "the neighbour run to start", func() bool { return goodRuns.Load() == 2 })

	for attempt := 1; attempt <= 2; attempt++ {
		status, body := runQueryBody(t, ts, QueryRequest{Query: genQuery, Engine: "boom"})
		if status != http.StatusOK {
			t.Fatalf("attempt %d: status %d (%s)", attempt, status, body)
		}
		lines := parseStream(t, body)
		if got := resultLines(body); !slices.Equal(got, resultLines(quiet)[:k]) {
			t.Fatalf("attempt %d: results before the fault = %v, want the first %d of the quiet run", attempt, got, k)
		}
		last := lines[len(lines)-1]
		if last.Type != "error" || !bytes.Contains(body, []byte(`"code":"internal"`)) || len(lines) != k+2 {
			t.Fatalf("attempt %d: stream = %s, want run + %d results + internal error record", attempt, body, k)
		}
		var rr RunRecord
		getJSON(t, ts.URL+"/v1/runs/"+lines[0].ID, &rr)
		if rr.Outcome != "failed" || !strings.Contains(rr.Error, "injected engine fault") || rr.Results != k {
			t.Fatalf("attempt %d: run-log record = %+v, want failed with the panic value", attempt, rr)
		}
		// The group deregistered: an identical request leads a fresh run.
		if got := boomRuns.Load(); got != int64(attempt) {
			t.Fatalf("after attempt %d the faulty engine was built %d times", attempt, got)
		}
	}

	status, body := runQueryBody(t, ts, QueryRequest{Query: genQuery, Engine: "boom-setup"})
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte(`"code":"internal"`)) {
		t.Fatalf("set-up panic: status %d body %s, want a structured 500", status, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the faults: %v %v", resp, err)
	}
	resp.Body.Close()

	release <- struct{}{}
	if got := <-neighbour; !slices.Equal(resultLines(got), resultLines(quiet)) {
		t.Fatalf("the neighbour's result lines changed beside a panicking run:\n%s\nquiet:\n%s", got, quiet)
	}
	st := waitForStats(t, srv, "the runs to settle", func(s Snapshot) bool { return s.RunsActive == 0 })
	if st.RunsFailed != 2 || st.RunsCompleted != 2 || st.RunsRejected != 0 {
		t.Fatalf("counters = failed %d, completed %d, rejected %d; want 2/2/0", st.RunsFailed, st.RunsCompleted, st.RunsRejected)
	}
	http.DefaultClient.CloseIdleConnections()
	ts.CloseClientConnections()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= idle })
}

// TestQueryEndVisibleAfterSlotRelease pins the order of a run's end: once
// its client can see the end — the /v1/runs record and runsActive back at 0
// — the admission slot is free, so an immediate new run on a one-slot
// server is admitted, whether the client read its trailer or vanished.
func TestQueryEndVisibleAfterSlotRelease(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrentRuns: 1})
	b, _ := json.Marshal(QueryRequest{Query: tinyQuery})
	cycles := 500
	if testing.Short() {
		cycles = 100
	}
	last := ""
	for i := 0; i < cycles; i++ {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			io.Copy(io.Discard, resp.Body) // read to the trailer
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: new run after a visible end: status %d", i, resp.StatusCode)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if recs := srv.runlog.list(); len(recs) > 0 && recs[0].ID != last && srv.Stats().RunsActive == 0 {
				last = recs[0].ID
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: run never ended: %+v", i, srv.Stats())
			}
			runtime.Gosched()
		}
	}
}
