package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"progxe/internal/obs"
	"progxe/internal/smj"
)

// coalesceKey identifies runs whose emission streams are interchangeable:
// same compiled plan (engine, normalized query, relation versions) and same
// run-shaping knobs. The wire format is deliberately absent — records are
// JSON-encoded once per run and framed per subscriber, so NDJSON and SSE
// clients share a group. Trace requests never coalesce (span retention is
// per-run state a shared run cannot attribute to one client).
type coalesceKey struct {
	plan          planKey
	limit         int
	exec          ExecInfo // granted knobs after resolveExec
	timeoutMillis int64
}

// groupRec is one stream record of a coalesced run, JSON-encoded exactly
// once. Every subscriber writes these same bytes, which is what makes the
// byte-identical-streams guarantee trivial to uphold.
type groupRec struct {
	event string
	data  []byte
}

// groupError replaces the stream when run setup fails before the head
// record: every subscriber reports the same HTTP error.
type groupError struct {
	status int
	code   string
	msg    string
}

// runGroup is one single-flight engine run fanned out to N subscribers. The
// run goroutine appends encoded records to a bounded replay ring; each
// subscriber drains it at its own pace under its own write deadline. A
// subscriber that falls off the ring's tail is terminated with a truncated-
// replay error — the engine never waits for a slow client. The run is
// canceled when the last subscriber detaches.
type runGroup struct {
	key coalesceKey

	mu   sync.Mutex
	cond *sync.Cond

	recs   []groupRec // ring: recs[i] is absolute record base+i
	base   int        // absolute index of recs[0]
	total  int        // absolute records appended so far
	maxBuf int

	done   bool
	preErr *groupError
	subs   int // currently attached
	fanout int // ever attached

	cancel  context.CancelFunc // aborts the engine run
	release func()             // admission slot, released once at run end
}

func newRunGroup(key coalesceKey, maxBuf int, release func()) *runGroup {
	g := &runGroup{key: key, maxBuf: maxBuf, release: release}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// append publishes one encoded record, evicting the oldest past the replay
// bound, and wakes every subscriber.
func (g *runGroup) append(event string, data []byte) {
	g.mu.Lock()
	g.recs = append(g.recs, groupRec{event: event, data: data})
	g.total++
	if len(g.recs) > g.maxBuf {
		drop := len(g.recs) - g.maxBuf
		g.recs = append(g.recs[:0], g.recs[drop:]...)
		g.base += drop
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// appendJSON marshals and publishes one record; marshal failures drop the
// record (same stance as streamWriter.record: value errors must not kill
// the stream).
func (g *runGroup) appendJSON(event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	g.append(event, b)
}

// failPre resolves the group into an HTTP error before any record was
// published and wakes the subscribers to report it.
func (g *runGroup) failPre(status int, code, msg string) {
	g.mu.Lock()
	g.preErr = &groupError{status: status, code: code, msg: msg}
	g.done = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// finish marks the stream complete and wakes the subscribers to drain the
// tail.
func (g *runGroup) finish() {
	g.mu.Lock()
	g.done = true
	g.mu.Unlock()
	g.cond.Broadcast()
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
// slot — when none exists. Attaching never consumes an admission slot:
// subscribers cost a replay cursor, not an engine run, which is exactly why
// coalesced bursts larger than MaxConcurrentRuns are not shed. ok=false
// means a would-be leader was rejected by admission (no group was created).
func (co *coalescer) joinOrLead(key coalesceKey, adm *admission, onAttach func()) (g *runGroup, leader, ok bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if g := co.groups[key]; g != nil {
		g.mu.Lock()
		g.subs++
		g.fanout++
		g.mu.Unlock()
		onAttach()
		return g, false, true
	}
	release, ok := adm.tryAcquire()
	if !ok {
		return nil, false, false
	}
	g = newRunGroup(key, co.replay, release)
	g.subs, g.fanout = 1, 1
	co.groups[key] = g
	onAttach()
	return g, true, true
}

// remove deregisters a group (idempotent; only if still current).
func (co *coalescer) remove(g *runGroup) {
	co.mu.Lock()
	if co.groups[g.key] == g {
		delete(co.groups, g.key)
	}
	co.mu.Unlock()
}

// detach drops one subscriber. When the last subscriber of a live run
// leaves, the group deregisters and the engine run is canceled — exactly
// the disconnect semantics an uncoalesced run has, generalized to N
// clients.
func (s *Server) detachGroup(g *runGroup) {
	g.mu.Lock()
	g.subs--
	last := g.subs == 0 && !g.done
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
	// Cond waits cannot observe context cancellation; a broadcast on
	// disconnect wakes this subscriber (and harmlessly the others) so it
	// can notice its client is gone.
	defer context.AfterFunc(ctx, g.cond.Broadcast)()

	sw := &streamWriter{
		w: w, sse: sse,
		rc:    http.NewResponseController(w),
		stall: s.cfg.WriteStallTimeout,
	}
	sw.f, _ = w.(http.Flusher)
	defer sw.end()

	var (
		began  bool
		cursor int
		batch  []groupRec
	)
	for {
		g.mu.Lock()
		for cursor >= g.total && !g.done && ctx.Err() == nil {
			g.cond.Wait()
		}
		if g.preErr != nil {
			pe := *g.preErr
			g.mu.Unlock()
			writeError(w, pe.status, pe.code, "%s", pe.msg)
			return
		}
		if ctx.Err() != nil {
			g.mu.Unlock()
			return
		}
		if cursor < g.base {
			g.mu.Unlock()
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
		batch = append(batch[:0], g.recs[cursor-g.base:g.total-g.base]...)
		cursor = g.total
		finished := g.done
		g.mu.Unlock()

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
		if finished {
			return
		}
	}
}

// runCoalesced executes the group's single engine run, publishing the head,
// result, and stats records to the replay ring. It runs detached from any
// subscriber's request context: its lifetime is bounded by the server's run
// context, the shared timeout, the shared limit, and the last detach.
func (s *Server) runCoalesced(g *runGroup, rs runSpec) {
	defer g.release()
	defer s.coal.remove(g)

	s.metrics.coalescedRunStarted()
	s.metrics.runStarted()
	start := time.Now()
	timeline := obs.NewTimeline(start)
	var (
		seq      int
		ttfr     time.Duration
		limitHit bool
		finished bool
	)
	defer func() {
		if !finished {
			s.metrics.runFinished(runFailed, int64(seq))
			g.finish()
		}
	}()
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
		if rs.limit > 0 && seq >= rs.limit {
			limitHit = true
			g.cancel()
		}
	})
	engineStats, runErr := rs.run(sink)
	elapsed := time.Since(start)

	// Deregister before publishing the trailer: once the run is over, a new
	// identical request must lead a fresh run (and count a plan-cache hit),
	// not replay this one's ring. The fanout read below is therefore final.
	s.coal.remove(g)
	g.mu.Lock()
	fanout := g.fanout
	g.mu.Unlock()
	rec := s.finishRun(runResult{
		runID: rs.runID, engineName: rs.engineName, query: rs.query,
		exec:   rs.exec,
		cached: rs.cached, fanout: fanout,
		start: start, elapsed: elapsed, ttfr: ttfr,
		seq: seq, limitHit: limitHit, runErr: runErr,
		progress: timeline.Quantiles(), phases: rs.prof.Report(),
		engineStats: engineStats,
	})
	finished = true
	g.appendJSON("stats", rec)
	g.finish()
}
