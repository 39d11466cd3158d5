package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"
	"unicode/utf8"

	"progxe/internal/core"
	"progxe/internal/obs"
	"progxe/internal/query"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the SkyMapJoin query in the PREFERRING dialect. FROM table
	// names are resolved against the relation catalog.
	Query string `json:"query"`
	// Engine selects the evaluation engine (see GET /v1/engines). Empty
	// picks the server default.
	Engine string `json:"engine,omitempty"`
	// Format is "ndjson" (default) or "sse". An Accept: text/event-stream
	// header also selects SSE.
	Format string `json:"format,omitempty"`
	// TimeoutMillis caps this run's duration; it is clamped to the server's
	// RunTimeout. 0 inherits the server cap.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Limit stops the run after this many results (0 = stream everything).
	// The truncated stream still only contains final skyline members.
	Limit int `json:"limit,omitempty"`
	// Exec nests the run-shaping knobs (workers) under one object, shared
	// verbatim by /v1/query and /v1/subscribe. See ExecRequest for the field
	// semantics and resolveExec for the clamping rules.
	Exec *ExecRequest `json:"exec,omitempty"`
	// Trace records a Chrome-trace document for this run (phase spans,
	// region spans, emission instants), retrievable afterwards from
	// GET /v1/runs/{id}/trace and loadable in Perfetto. Off by default:
	// span retention costs memory proportional to the region count. Trace
	// runs bypass the plan cache and share their run with no other request —
	// a trace documents one complete, private run.
	Trace bool `json:"trace,omitempty"`
}

// runRecord heads every stream: the run's id in the run log, the resolved
// engine, output dimensions, and the exec knobs granted after clamping.
type runRecord struct {
	Type   string   `json:"type"` // "run"
	ID     string   `json:"id"`
	Engine string   `json:"engine"`
	Dims   []string `json:"dims"`
	// Exec echoes the granted exec knobs as one object, mirroring the
	// request's "exec" spelling.
	Exec ExecInfo `json:"exec"`
	// Cached reports that this run reused a compiled plan from the plan
	// cache, skipping the partition / region-build / prune phases.
	Cached bool `json:"cached,omitempty"`
}

// resultRecord carries one progressively emitted result.
type resultRecord struct {
	Type          string    `json:"type"` // "result"
	Seq           int       `json:"seq"`
	LeftID        int64     `json:"leftId"`
	RightID       int64     `json:"rightId"`
	Out           []float64 `json:"out"`
	ElapsedMillis float64   `json:"elapsedMillis"`
}

// statsRecord trails every stream, reporting how the run ended, where its
// time went, and how early its results arrived.
type statsRecord struct {
	Type          string  `json:"type"` // "stats"
	RunID         string  `json:"runId"`
	Engine        string  `json:"engine"`
	Results       int     `json:"results"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	TTFRMillis    float64 `json:"ttfrMillis,omitempty"`
	Canceled      bool    `json:"canceled,omitempty"`
	Reason        string  `json:"reason,omitempty"` // disconnect | timeout | limit | shutdown
	Error         string  `json:"error,omitempty"`
	// Cached reports plan-cache reuse (see runRecord.Cached).
	Cached bool `json:"cached,omitempty"`
	// Subscribers counts the clients this run's stream was fanned out to:
	// 1 for a lone request, more when identical requests shared the run.
	Subscribers int           `json:"subscribers"`
	Progress    obs.Quantiles `json:"progress"`
	Phases      obs.Report    `json:"phases"`
	EngineStats smj.Stats     `json:"engineStats"`
}

// streamWriter abstracts the two wire formats (NDJSON lines, SSE frames).
// Records are flushed individually: each result reaches the client socket
// the moment its reader takes it off the ring. Each record write runs under
// a rolling deadline (stall) so a connected-but-stalled reader cannot pin
// its handler indefinitely; the first failed write reports through onFail
// (a subscription cancels itself; a query stream just detaches) and
// silences the rest of the stream.
type streamWriter struct {
	w      http.ResponseWriter
	f      http.Flusher
	rc     *http.ResponseController
	stall  time.Duration
	onFail func()
	sse    bool
	fail   bool // a write failed; the client is gone or stalled
}

func (s *Server) newStreamWriter(w http.ResponseWriter, sse bool, onFail func()) *streamWriter {
	sw := &streamWriter{
		w: w, sse: sse,
		rc:     http.NewResponseController(w),
		stall:  s.cfg.WriteStallTimeout,
		onFail: onFail,
	}
	sw.f, _ = w.(http.Flusher)
	return sw
}

func (sw *streamWriter) begin() {
	if sw.sse {
		sw.w.Header().Set("Content-Type", "text/event-stream")
	} else {
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	sw.w.Header().Set("Cache-Control", "no-store")
	sw.w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	sw.w.WriteHeader(http.StatusOK)
}

// record writes one record of the given event type and flushes it.
func (sw *streamWriter) record(event string, v any) {
	if sw.fail {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		// A value error (e.g. a non-finite float escaping the engine math),
		// not a connection error: drop this record but keep the stream —
		// the stats trailer must still reach the client.
		return
	}
	sw.raw(event, b)
}

// raw writes one pre-encoded record and flushes it. Query streams go through
// this path: the run encodes each record once, every subscriber writes the
// same bytes.
func (sw *streamWriter) raw(event string, data []byte) {
	if sw.fail {
		return
	}
	if sw.stall > 0 {
		// Rolling per-record deadline; reset by end() after the stream.
		_ = sw.rc.SetWriteDeadline(time.Now().Add(sw.stall))
	}
	var err error
	if sw.sse {
		_, err = fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", event, data)
	} else {
		_, err = fmt.Fprintf(sw.w, "%s\n", data)
	}
	if err != nil {
		sw.failed()
		return
	}
	if sw.f != nil {
		sw.f.Flush()
	}
}

func (sw *streamWriter) failed() {
	sw.fail = true
	if sw.onFail != nil {
		sw.onFail()
	}
}

// end clears the rolling write deadline so a keep-alive connection is not
// poisoned for its next request.
func (sw *streamWriter) end() {
	if sw.stall > 0 {
		_ = sw.rc.SetWriteDeadline(time.Time{})
	}
}

// resolveTimeout reconciles the request's timeout with the server cap: the
// request may only tighten it.
func (s *Server) resolveTimeout(reqMillis int64) time.Duration {
	timeout := s.cfg.RunTimeout
	if reqMillis > 0 {
		ms := reqMillis
		// Clamp before multiplying: a huge value would overflow to a
		// negative Duration and disable the server's cap entirely.
		if ms > int64(time.Duration(1<<62)/time.Millisecond) {
			ms = int64(time.Duration(1<<62) / time.Millisecond)
		}
		if t := time.Duration(ms) * time.Millisecond; timeout < 0 || t < timeout {
			timeout = t
		}
	}
	return timeout
}

// planFor resolves the compiled plan for key. With useCache, the plan cache
// answers — a hit skips compilation and, for ProgXe-family engines, the
// partition / region-build / prune phases entirely; a miss compiles once and
// is shared by every concurrent requester of the same key. Without it the
// query is compiled privately and entry.plan stays nil, which downstream
// means "run exactly as an uncached server would".
//
// Cache builds run the prepare step under a server-scoped context (bounded
// by shutdown and the server's RunTimeout), not the triggering request's:
// a builder whose client disconnects mid-compile must not poison the entry
// its sharers are waiting on.
func (s *Server) planFor(key planKey, engine smj.Engine, q *query.Query, left, right *relation.Relation, useCache bool) (entry *planEntry, hit bool, err error) {
	if !useCache || s.plans == nil {
		p, err := q.Compile(left, right)
		if err != nil {
			return nil, false, err
		}
		return &planEntry{problem: p}, false, nil
	}
	return s.plans.getOrBuild(key, func() (*planEntry, error) {
		p, err := q.Compile(left, right)
		if err != nil {
			return nil, err
		}
		e := &planEntry{problem: p}
		pe, ok := engine.(planEngine)
		if !ok {
			return e, nil // baseline engine: cache the compilation alone
		}
		pl, err := s.preparePlan(pe, p)
		if err != nil {
			return nil, err
		}
		e.plan = pl
		return e, nil
	})
}

// preparePlan runs pe's prepare step on p under a server-scoped context,
// bounded by shutdown and the server's RunTimeout.
func (s *Server) preparePlan(pe planEngine, p *smj.Problem) (*core.Prepared, error) {
	ctx, cancel := s.runCtx, context.CancelFunc(func() {})
	if t := s.cfg.RunTimeout; t > 0 {
		ctx, cancel = context.WithTimeout(ctx, t)
	}
	defer cancel()
	return pe.PrepareContext(ctx, p)
}

// planFailure classifies a failure to resolve a plan: a refused query is
// bad, shutdown or the RunTimeout make the server unavailable, a panic is
// internal.
func planFailure(err error) *httpError {
	status, code := http.StatusBadRequest, errBadQuery
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusServiceUnavailable, errUnavailable
	case errors.Is(err, errPlanPanic):
		status, code = http.StatusInternalServerError, errInternal
	}
	return httpErrorf(status, code, "%v", err)
}

// runResult gathers everything one finished engine run produced, for the
// stats trailer, metrics, and the run log.
type runResult struct {
	runID, engineName, query string
	exec                     ExecInfo
	cached                   bool
	fanout                   int // subscribers ever attached, ≥ 1
	start                    time.Time
	elapsed, ttfr            time.Duration
	seq                      int
	limitHit                 bool
	runErr                   error
	progress                 obs.Quantiles
	phases                   obs.Report
	engineStats              smj.Stats
	trace                    []byte
}

// finishRun settles a completed engine run: outcome classification, the
// metrics counters, the run-log record, and the structured log line. It
// returns the stats trailer for the caller to put on the wire.
func (s *Server) finishRun(res runResult) statsRecord {
	rec := statsRecord{
		Type: "stats", RunID: res.runID, Engine: res.engineName, Results: res.seq,
		ElapsedMillis: float64(res.elapsed.Microseconds()) / 1000,
		TTFRMillis:    float64(res.ttfr.Microseconds()) / 1000,
		Cached:        res.cached,
		Subscribers:   res.fanout,
		Progress:      res.progress,
		Phases:        res.phases,
		EngineStats:   res.engineStats,
	}
	outcome := runCompleted
	switch {
	case res.runErr == nil:
	case errors.Is(res.runErr, context.Canceled), errors.Is(res.runErr, context.DeadlineExceeded):
		outcome = runCanceled
		rec.Canceled = true
		switch {
		case res.limitHit:
			rec.Reason = "limit"
		case errors.Is(res.runErr, context.DeadlineExceeded):
			rec.Reason = "timeout"
		case s.runCtx.Err() != nil:
			rec.Reason = "shutdown"
		default:
			rec.Reason = "disconnect"
		}
	default:
		outcome = runFailed
		rec.Error = res.runErr.Error()
	}
	s.metrics.runFinished(outcome, int64(res.seq))
	s.metrics.observeProgress(res.engineName, res.progress)
	s.metrics.observePhases(res.phases)

	outcomeName := "completed"
	switch outcome {
	case runCanceled:
		outcomeName = "canceled"
	case runFailed:
		outcomeName = "failed"
	}
	s.runlog.add(RunRecord{
		ID: res.runID, Engine: res.engineName, Query: truncate(res.query, 512),
		Exec: res.exec, Start: res.start,
		ElapsedMillis: rec.ElapsedMillis,
		Outcome:       outcomeName, Reason: rec.Reason, Error: rec.Error,
		Results: res.seq, Cached: res.cached, Subscribers: res.fanout,
		Progress: res.progress, Phases: res.phases,
		EngineStats: res.engineStats,
	}, res.trace)

	logAttrs := []any{
		"id", res.runID, "engine", res.engineName, "outcome", outcomeName,
		"results", res.seq, "subscribers", res.fanout,
		"elapsedMs", rec.ElapsedMillis, "ttfrMs", rec.TTFRMillis,
		"phases", res.phases.String(),
	}
	if res.cached {
		logAttrs = append(logAttrs, "cached", true)
	}
	if rec.Reason != "" {
		logAttrs = append(logAttrs, "reason", rec.Reason)
	}
	if rec.Error != "" {
		logAttrs = append(logAttrs, "error", rec.Error)
	}
	if s.cfg.SlowRunThreshold > 0 && res.elapsed > s.cfg.SlowRunThreshold {
		s.logger.Warn("slow run", append(logAttrs,
			"thresholdMs", float64(s.cfg.SlowRunThreshold.Microseconds())/1000)...)
	} else {
		s.logger.Info("run", logAttrs...)
	}
	return rec
}

// decodeRequest reads the request body /v1/query and /v1/subscribe share:
// JSON decode, wire-format negotiation, query parse. It writes the 400 itself
// and reports ok=false when the request cannot be served.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string) (req QueryRequest, q *query.Query, sse, ok bool) {
	body := http.MaxBytesReader(w, r.Body, defaultMaxQueryBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "bad %s request: %v", what, err)
		return req, nil, false, false
	}
	// An explicit format in the body wins; the Accept header only decides
	// when the body names none.
	if req.Format != "" && !strings.EqualFold(req.Format, "sse") && !strings.EqualFold(req.Format, "ndjson") {
		writeError(w, http.StatusBadRequest, errBadFormat, "unknown format %q (want ndjson or sse)", req.Format)
		return req, nil, false, false
	}
	sse = strings.EqualFold(req.Format, "sse") ||
		(req.Format == "" && strings.Contains(r.Header.Get("Accept"), "text/event-stream"))
	q, err := query.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadQuery, "%v", err)
		return req, nil, false, false
	}
	return req, q, sse, true
}

// handleQuery serves one query through a run group: the first request for a
// coalesce key leads (setting up and starting the engine run), concurrent
// identical requests attach as subscribers, and every client streams the
// same byte-identical records from the group's replay ring until the run
// completes, errors, hits the limit, times out, or its last client
// disconnects — the latter three through context cancellation of the
// smj.ContextEngine contract. A lone request is a group of one; a trace
// request leads a private group nothing else attaches to.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, q, sse, ok := decodeRequest(w, r, "query")
	if !ok {
		return
	}
	engineName := req.Engine
	if engineName == "" {
		engineName = s.cfg.DefaultEngine
	}

	// Catalog resolution precedes admission: it is cheap (no relation-sized
	// copies) and needed to name the run — the relation versions pin exactly
	// the snapshots it will see.
	snap, missing := s.catalog.snapshot([2]string{q.From[0].Table, q.From[1].Table})
	if missing != "" {
		writeError(w, http.StatusNotFound, errRelationNotFound, "relation %q is not in the catalog", missing)
		return
	}
	timeout := s.resolveTimeout(req.TimeoutMillis)
	key := coalesceKey{
		plan: planKey{
			engine: strings.ToLower(engineName), query: q.String(),
			leftVer: snap.vers[0], rightVer: snap.vers[1],
		},
		limit: req.Limit, exec: s.resolveExec(&req),
		timeoutMillis: int64(timeout / time.Millisecond),
	}
	g, leader, ok := s.coal.joinOrLead(key, req.Trace, s.adm)
	if !ok {
		s.metrics.runRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errBusy,
			"all %d run slots are busy; retry shortly", s.adm.capacity())
		return
	}
	if !g.private {
		s.metrics.coalescedAttach()
	}
	if leader {
		s.startRun(g, req, engineName, q, snap.rels[0], snap.rels[1], timeout)
	}
	s.streamGroup(w, r, g, sse)
}

// startRun performs the leader-only setup of a run — engine construction,
// plan resolution, context assembly — and hands the group to the run
// goroutine. Admission precedes it: Compile copies relation-sized data
// (selection push-down), so unadmitted requests must not reach it. Setup
// failures resolve the group into a shared HTTP error: every subscriber (the
// leader included) reports it identically.
func (s *Server) startRun(g *runGroup, req QueryRequest, engineName string, q *query.Query,
	left, right *relation.Relation, timeout time.Duration) {

	// Until the run goroutine owns the group, every exit — error or panic —
	// must resolve the group and return the admission slot it holds.
	started := false
	failure := httpErrorf(http.StatusInternalServerError, errInternal, "internal error during run setup")
	defer func() {
		if started {
			return
		}
		if p := recover(); p != nil {
			s.logger.Error("run setup panicked", "query", truncate(req.Query, 512), "panic", p, "stack", string(debug.Stack()))
		}
		s.coal.remove(g)
		g.failPre(failure)
		g.release()
	}()

	// Every run is profiled: the accumulators are a few atomic adds, and the
	// phase breakdown feeds the run log, the stats trailer, and /metrics.
	// Span retention and the event recorder are opt-in per request.
	prof := obs.NewProfiler()
	// Per-run parallelism, clamped by the server cap: the engine is built for
	// this run alone, and the run record reports what was granted.
	opts := core.Options{Workers: g.key.exec.Workers, Profiler: prof}
	var tracer *core.TraceRecorder
	if req.Trace {
		prof.EnableSpans()
		tracer = core.NewTraceRecorder(prof.Epoch())
		opts.Trace = tracer.Observe
	}
	engine, err := s.cfg.NewEngine(engineName, opts)
	if err != nil {
		failure = httpErrorf(http.StatusBadRequest, errUnknownEngine, "%v", err)
		return
	}
	// Trace runs bypass the plan cache: a cached plan was prepared by some
	// earlier run, so reusing it would leave the trace without its setup
	// spans — a trace documents one complete run.
	entry, cached, err := s.planFor(g.key.plan, engine, q, left, right, !req.Trace)
	if err != nil {
		failure = planFailure(err)
		return
	}

	// The run's context descends from the server's run context, not the
	// leader's request: the run must survive the leader's disconnect as long
	// as other subscribers remain. Its lifetime is bounded by server
	// shutdown (so graceful drains finish within their window), the timeout,
	// the limit, and the last detach.
	ctx := s.runCtx
	var cancelT context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelT = context.WithTimeout(ctx, timeout)
	}
	ctx, cancelRun := context.WithCancel(ctx)
	g.mu.Lock()
	g.cancel = func() { cancelRun(); cancelT() }
	g.mu.Unlock()

	runID := s.runlog.newID()
	g.appendJSON("run", runRecord{
		Type: "run", ID: runID, Engine: engine.Name(), Dims: entry.problem.Maps.Names(),
		Exec: g.key.exec, Cached: cached,
	})
	go s.runGroupRun(g, runSpec{
		runID: runID, engineName: engine.Name(), query: req.Query,
		cached: cached, prof: prof, tracer: tracer,
		run: func(sink smj.Sink) (smj.Stats, error) {
			defer cancelRun()
			defer cancelT()
			if entry.plan != nil {
				// Cache hit on a ProgXe-family engine: run straight from the
				// plan snapshot, skipping partition / region-build / prune.
				return engine.(planEngine).RunPlanContext(ctx, entry.plan, sink)
			}
			return smj.RunContext(ctx, engine, entry.problem, sink)
		},
	})
	started = true
}

// truncate caps a string kept in the run log at n bytes, cutting on a rune
// boundary so the kept prefix stays valid UTF-8.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}
