package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"progxe/internal/core"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// coalesceKey identifies runs whose emission streams are interchangeable:
// same compiled plan (engine, normalized query, relation versions) and same
// run-shaping knobs. The wire format is deliberately absent — records are
// JSON-encoded once per run and framed per subscriber, so NDJSON and SSE
// clients share a group.
type coalesceKey struct {
	plan          planKey
	limit         int
	exec          ExecInfo // granted knobs after resolveExec
	timeoutMillis int64
}

// groupRec is one stream record of a run, JSON-encoded exactly once. Every
// subscriber writes these same bytes, which is what makes the
// byte-identical-streams guarantee trivial to uphold.
type groupRec struct {
	event string
	data  []byte
}

// runGroup is how every /v1/query run reaches its sockets: one engine run
// fanned out to N ≥ 1 subscribers (a lone request is a group of one). The run
// goroutine appends encoded records to a bounded replay ring; each subscriber
// drains it at its own pace under its own write deadline. A subscriber that
// falls off the ring's tail is terminated with a truncated-replay error — the
// engine never waits for a slow client. The run is canceled when the last
// subscriber detaches.
type runGroup struct {
	key coalesceKey
	// private marks a trace run: the coalescer never registers it, so no
	// other request attaches — span retention is per-run state a shared run
	// could not attribute to one client.
	private bool
	recs    *ring[groupRec]

	mu     sync.Mutex
	preErr *httpError // replaces the stream when run setup failed
	subs   int        // currently attached
	fanout int        // ever attached

	cancel  context.CancelFunc // aborts the engine run
	release func()             // admission slot; idempotent
}

// appendJSON marshals and publishes one record; marshal failures drop the
// record (same stance as streamWriter.record: value errors must not kill
// the stream).
func (g *runGroup) appendJSON(event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	g.recs.append(groupRec{event: event, data: b})
}

// failPre resolves the group into an HTTP error before any record was
// published and wakes the subscribers to report it, all identically.
func (g *runGroup) failPre(err *httpError) {
	g.mu.Lock()
	g.preErr = err
	g.mu.Unlock()
	g.recs.close()
}

// coalescer deduplicates concurrent identical runs: the first request for a
// key leads (starting the engine run), later ones attach to the in-flight
// group. Groups deregister when their run completes, so sequential repeats
// run independently — coalescing collapses concurrency, the plan cache
// collapses repetition.
type coalescer struct {
	mu     sync.Mutex
	groups map[coalesceKey]*runGroup
	replay int
}

func newCoalescer(replay int) *coalescer {
	return &coalescer{groups: make(map[coalesceKey]*runGroup), replay: replay}
}

// joinOrLead attaches the caller to the in-flight group for key, creating
// one — with the caller as leader, holding a freshly acquired admission
// slot — when none exists or the request is private. Attaching never consumes
// an admission slot: subscribers cost a replay cursor, not an engine run,
// which is exactly why bursts of one query larger than MaxConcurrentRuns are
// not shed. ok=false means a would-be leader was rejected by admission (no
// group was created).
func (co *coalescer) joinOrLead(key coalesceKey, private bool, adm *admission) (g *runGroup, leader, ok bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if g := co.groups[key]; g != nil && !private {
		g.mu.Lock()
		g.subs++
		g.fanout++
		g.mu.Unlock()
		return g, false, true
	}
	release, ok := adm.tryAcquire()
	if !ok {
		return nil, false, false
	}
	g = &runGroup{
		key: key, private: private, release: release,
		recs: newRing[groupRec](co.replay),
		subs: 1, fanout: 1,
	}
	if !private {
		co.groups[key] = g
	}
	return g, true, true
}

// remove deregisters a group (idempotent; only if still current — a private
// group never is).
func (co *coalescer) remove(g *runGroup) {
	co.mu.Lock()
	if co.groups[g.key] == g {
		delete(co.groups, g.key)
	}
	co.mu.Unlock()
}

// detachGroup drops one subscriber. When the last one leaves, the group
// deregisters and the engine run is canceled (a no-op once the run is over):
// a client's disconnect ends its run, generalized to N clients.
func (s *Server) detachGroup(g *runGroup) {
	g.mu.Lock()
	g.subs--
	last := g.subs == 0
	cancel := g.cancel
	g.mu.Unlock()
	if last {
		s.coal.remove(g)
		if cancel != nil {
			cancel()
		}
	}
}

// streamGroup drains the group's record stream to one subscriber: replay
// from its cursor, then live records as the run publishes them. Slow
// clients time out under their own write deadline or fall off the replay
// ring; neither touches the engine run while other subscribers remain.
func (s *Server) streamGroup(w http.ResponseWriter, r *http.Request, g *runGroup, sse bool) {
	defer s.detachGroup(g)

	ctx := r.Context()
	defer context.AfterFunc(ctx, g.recs.wake)()
	gone := func() bool { return ctx.Err() != nil }

	sw := s.newStreamWriter(w, sse, nil)
	defer sw.end()

	var (
		began     bool
		cursor    uint64
		batch     []groupRec
		truncated bool
	)
	for {
		batch, cursor, truncated = g.recs.next(cursor, batch[:0], gone)
		if gone() {
			return
		}
		if truncated {
			s.metrics.replayTruncation()
			if began {
				sw.record("error", newErrorRecord(errReplayTruncated,
					"replay buffer truncated: client fell too far behind the shared run"))
			} else {
				writeError(w, http.StatusServiceUnavailable, errReplayTruncated,
					"replay buffer truncated: client fell too far behind the shared run")
			}
			return
		}
		if len(batch) == 0 {
			// Closed and drained. A stream that never began is a set-up
			// failure, reported as the HTTP error it resolved into.
			g.mu.Lock()
			pe := g.preErr
			g.mu.Unlock()
			if pe != nil && !began {
				writeError(w, pe.status, pe.code, "%s", pe.msg)
			}
			return
		}
		if !began {
			sw.begin()
			began = true
		}
		for _, rec := range batch {
			sw.raw(rec.event, rec.data)
			if sw.fail {
				return
			}
		}
	}
}

// runSpec is what the run goroutine needs from leader setup.
type runSpec struct {
	runID, engineName, query string
	cached                   bool
	prof                     *obs.Profiler
	tracer                   *core.TraceRecorder // nil unless the request asked for a trace
	run                      func(smj.Sink) (smj.Stats, error)
}

// runGroupRun executes the group's one engine run, publishing the result
// records and the trailer to the replay ring. It runs detached from any
// subscriber's request context: its lifetime is bounded by the server's run
// context, the shared timeout, the shared limit, and the last detach.
func (s *Server) runGroupRun(g *runGroup, rs runSpec) {
	if !g.private {
		s.metrics.coalescedRunStarted()
	}
	s.metrics.runStarted()
	start := time.Now()
	timeline := obs.NewTimeline(start)
	var (
		seq      int
		ttfr     time.Duration
		limitHit bool
		panicked bool
	)
	sink := smj.SinkFunc(func(res smj.Result) {
		if limitHit {
			return
		}
		timeline.Observe()
		seq++
		if seq == 1 {
			ttfr = time.Since(start)
			s.metrics.observeTTFR(ttfr)
		}
		g.appendJSON("result", resultRecord{
			Type: "result", Seq: seq,
			LeftID: res.LeftID, RightID: res.RightID, Out: res.Out,
			ElapsedMillis: float64(time.Since(start).Microseconds()) / 1000,
		})
		if g.key.limit > 0 && seq >= g.key.limit {
			limitHit = true
			g.cancel()
		}
	})
	engineStats, runErr := func() (st smj.Stats, err error) {
		// One bad run must not take down the process or perturb another
		// run's stream: a panicking engine ends this run as failed.
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				err = fmt.Errorf("engine panic: %v", p)
				s.logger.Error("run panicked", "id", rs.runID, "panic", p, "stack", string(debug.Stack()))
			}
		}()
		return rs.run(sink)
	}()
	elapsed := time.Since(start)

	// Deregister before publishing the trailer: once the run is over, a new
	// identical request must lead a fresh run (and count a plan-cache hit),
	// not replay this one's ring. The fanout read below is therefore final.
	s.coal.remove(g)
	g.mu.Lock()
	fanout := g.fanout
	g.mu.Unlock()
	var trace []byte
	if rs.tracer != nil {
		spans, instants := rs.tracer.Spans()
		trace, _ = obs.TraceJSON(append(rs.prof.Spans(), spans...), instants)
	}
	rec := s.finishRun(runResult{
		runID: rs.runID, engineName: rs.engineName, query: rs.query,
		exec:   g.key.exec,
		cached: rs.cached, fanout: fanout,
		start: start, elapsed: elapsed, ttfr: ttfr,
		seq: seq, limitHit: limitHit, runErr: runErr,
		progress: timeline.Quantiles(), phases: rs.prof.Report(),
		engineStats: engineStats, trace: trace,
	})
	// The slot returns before the trailer is published, so a client that has
	// read its trailer never finds its own finished run still holding one.
	g.release()
	if panicked {
		g.appendJSON("error", newErrorRecord(errInternal,
			"run %s failed with an internal error; see /v1/runs/%s", rs.runID, rs.runID))
	} else {
		g.appendJSON("stats", rec)
	}
	g.recs.close()
}
