package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"progxe/internal/core"
	"progxe/internal/feed"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/query"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// retractRecord withdraws a previously streamed result: a base-relation
// change killed the pair (its input was deleted, or a new tuple dominates
// it). Seq is the catalog change sequence that caused the retraction.
type retractRecord struct {
	Type          string  `json:"type"` // "retract"
	Seq           uint64  `json:"seq,omitempty"`
	LeftID        int64   `json:"leftId"`
	RightID       int64   `json:"rightId"`
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// checkpointRecord marks the stream consistent: every result and retract
// implied by catalog changes up to Seq has been emitted. One follows the
// initial snapshot and one follows each applied change.
type checkpointRecord struct {
	Type          string  `json:"type"` // "checkpoint"
	Seq           uint64  `json:"seq"`
	Live          int     `json:"live"` // net result-set size at this point
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// Test seams. applyHook, when non-nil, runs before a subscription streams
// its snapshot and before it applies each catalog change, with the
// subscription's run id; tests set it to inject a fault into the snapshot or
// the apply loop. buildHook, when non-nil, runs on the goroutine that builds
// a subscription's space beside its batch snapshot, with the subscription's
// context, just before the build. snapshotHook, when non-nil, wraps the sink
// a batch snapshot run streams into; tests set it to make the stream and the
// space disagree.
var (
	applyHook    func(runID string)
	buildHook    func(ctx context.Context)
	snapshotHook func(smj.Sink) smj.Sink
)

// liveStreamSink adapts the subscription's stream writer to core.LiveSink,
// numbering results and stamping elapsed time like the query path does.
type liveStreamSink struct {
	sw    *streamWriter
	start time.Time
	seq   uint64 // catalog seq of the change being applied; 0 during snapshot
	n     int    // results emitted
	live  int    // net result-set size
	retr  int64  // retractions emitted
}

func (ls *liveStreamSink) Result(r smj.Result) {
	ls.n++
	ls.live++
	ls.sw.record("result", resultRecord{
		Type: "result", Seq: ls.n,
		LeftID: r.LeftID, RightID: r.RightID, Out: r.Out,
		ElapsedMillis: float64(time.Since(ls.start).Microseconds()) / 1000,
	})
}

func (ls *liveStreamSink) Retract(leftID, rightID int64) {
	ls.retr++
	ls.live--
	ls.sw.record("retract", retractRecord{
		Type: "retract", Seq: ls.seq,
		LeftID: leftID, RightID: rightID,
		ElapsedMillis: float64(time.Since(ls.start).Microseconds()) / 1000,
	})
}

// snapshotSink streams the snapshot through the subscription's sink and
// keeps what the snapshot checks and reports: the pairs it streamed and when.
type snapshotSink struct {
	live     *liveStreamSink
	pairs    [][2]int64
	timeline *obs.Timeline
}

func (ss *snapshotSink) Result(r smj.Result) {
	ss.pairs = append(ss.pairs, r.Key())
	ss.timeline.Observe()
	ss.live.Result(r)
}

// snapshotPlan is the ProgXe plan a subscription streams its snapshot
// from, with the engine that runs it and that engine's profiler.
type snapshotPlan struct {
	engine *core.Engine
	plan   *core.Prepared
	prof   *obs.Profiler
	cached bool
}

// resolveSnapshotPlan resolves the ProgXe plan of q, whatever the default
// engine: through the plan cache, under the key of a /v1/query of q with
// "engine":"progxe" over the same relation versions, or with the cache off
// prepared under a cache build's bounds. Its error refuses the subscription.
func (s *Server) resolveSnapshotPlan(q *query.Query, snap catalogSnapshot) (*snapshotPlan, error) {
	prof := obs.NewProfiler()
	engine := core.New(core.Options{Profiler: prof}) // the registry's "progxe"
	key := planKey{engine: "progxe", query: q.String(), leftVer: snap.vers[0], rightVer: snap.vers[1]}
	entry, hit, err := s.planFor(key, engine, q, snap.rels[0], snap.rels[1], true)
	if err != nil {
		return nil, err
	}
	pl := entry.plan
	if pl == nil { // the cache is off, or holds the compilation alone
		if pl, err = s.preparePlan(engine, entry.problem); err != nil {
			return nil, err
		}
	}
	return &snapshotPlan{engine: engine, plan: pl, prof: prof, cached: hit}, nil
}

// streamSnapshot streams the subscription's snapshot to ss and builds the
// space that maintains it, the two at once: this goroutine runs the plan
// serially, streaming each result as ProgXe releases it, final, and at the
// first result a second goroutine starts the build (before it the two
// would share the CPU the first result needs); a failed build cancels the
// stream and a failed stream the build. The snapshot stands only if the
// streamed pairs are exactly the space's alive set. Each step runs
// contained, so the build goroutine is always joined. The error is ctx's
// when ctx ended the snapshot, and a failure otherwise.
func (s *Server) streamSnapshot(ctx context.Context, cancel context.CancelFunc, runID string,
	stage *core.LiveStage, bp *snapshotPlan, ss *snapshotSink) (*core.LiveSpace, error) {

	var (
		space            *core.LiveSpace
		buildErr, runErr error
		started          bool
		built            = make(chan struct{})
	)
	build := func() {
		if started {
			return
		}
		started = true
		go func() {
			defer close(built)
			buildErr = s.containStep(runID, func() (err error) {
				if buildHook != nil {
					buildHook(ctx)
				}
				space, err = stage.BuildContext(ctx, nil)
				return err
			})
			if buildErr != nil {
				cancel()
			}
		}()
	}
	runErr = s.containStep(runID, func() error {
		var sink smj.Sink = smj.SinkFunc(func(r smj.Result) {
			ss.Result(r)
			build()
		})
		if snapshotHook != nil {
			sink = snapshotHook(sink)
		}
		_, err := bp.engine.RunPlanContext(ctx, bp.plan, sink)
		return err
	})
	if runErr == nil {
		build() // a run without results starts it only now
	} else {
		cancel()
	}
	if started {
		<-built
	}

	for _, err := range []error{buildErr, runErr} {
		if err != nil && (ctx.Err() == nil || !errors.Is(err, ctx.Err())) {
			return nil, err
		}
	}
	if buildErr != nil || runErr != nil {
		return nil, ctx.Err()
	}
	return space, sameAlive(ss.pairs, space)
}

// sameAlive reports whether the streamed pairs are exactly the alive set of
// space: each alive pair streamed once, and nothing else.
func sameAlive(streamed [][2]int64, space *core.LiveSpace) error {
	alive := space.Results() // sorted by (LeftID, RightID)
	want := make([][2]int64, len(alive))
	for i, r := range alive {
		want[i] = r.Key()
	}
	slices.SortFunc(streamed, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	if !slices.Equal(streamed, want) {
		return fmt.Errorf("the streamed snapshot does not match the live space: %d pairs streamed, %d alive", len(streamed), len(want))
	}
	return nil
}

// containStep runs one step of subscription runID. A panic in it becomes
// its error, so it ends only this subscription.
func (s *Server) containStep(runID string, step func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			s.logger.Error("subscription panicked", "id", runID, "panic", p, "stack", string(debug.Stack()))
		}
	}()
	return step()
}

// handleSubscribe is POST /v1/subscribe: a never-ending live query. The body
// is the QueryRequest schema shared with /v1/query (same exec object); trace
// and limit are meaningless on an unbounded stream and rejected.
//
// Before the response header only what can refuse the subscription runs:
// compilation, StageLive's register pass and grid-size check, and the
// resolution of the query's ProgXe plan (resolveSnapshotPlan), whose
// prepare refuses a join pair that maps to a non-finite output. A refusal
// is a structured 4xx body, never a half-open stream. After the header the
// snapshot streams from that plan's serial run, each result record final,
// in ProgXe release order, while the resident space is built beside it; one
// checkpoint closes the snapshot once both are done and the streamed pairs
// are exactly the space's survivors. The handler then holds the space
// resident and folds in every catalog change to the subscribed relations —
// emitting result records for new skyline members, retract records for
// killed ones, and a checkpoint record after each applied change. The
// stream ends when the client disconnects, the server shuts down, a
// subscribed relation is dropped or wholesale-replaced, the subscription
// falls off the bounded change log (replay_truncated), or an insert would
// pair into a non-finite output (bad_query).
//
// Exec parallelism knobs are accepted but not granted: the snapshot run and
// live maintenance are serial (each change's repair work is tiny), so the
// echoed exec object reports zero workers.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	req, q, sse, ok := decodeRequest(w, r, "subscribe")
	if !ok {
		return
	}
	if req.Trace {
		writeError(w, http.StatusBadRequest, errBadRequest, "subscriptions do not record traces")
		return
	}
	if req.Limit != 0 {
		writeError(w, http.StatusBadRequest, errBadRequest, "subscriptions stream indefinitely; limit is not supported")
		return
	}
	if req.Engine != "" && !strings.EqualFold(req.Engine, "live") {
		writeError(w, http.StatusBadRequest, errUnknownEngine,
			"subscriptions run the live maintenance engine; engine %q is not selectable here", req.Engine)
		return
	}

	if s.subAdm == nil {
		writeError(w, http.StatusServiceUnavailable, errUnavailable,
			"subscriptions are disabled on this server")
		return
	}
	release, ok := s.subAdm.tryAcquire()
	if !ok {
		s.metrics.runRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errBusy,
			"all %d subscription slots are busy; retry shortly", s.subAdm.capacity())
		return
	}
	defer release()

	// The subscription's clock covers staging: elapsedMillis on every record
	// is what the client has waited since its request was admitted.
	start := time.Now()
	// The snapshot and the change-log cursor are one read: every event from
	// the cursor on is a mutation the snapshot does not hold.
	snap, missing := s.catalog.snapshot([2]string{q.From[0].Table, q.From[1].Table})
	if missing != "" {
		writeError(w, http.StatusNotFound, errRelationNotFound, "relation %q is not in the catalog", missing)
		return
	}
	plan, err := q.CompileLive(snap.rels[0], snap.rels[1])
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadQuery, "%v", err)
		return
	}
	// Everything that can refuse the subscription happens here, before the
	// response is committed: a bad relation gets the structured 4xx body,
	// never a half-open stream.
	stage, err := core.StageLive(plan.Problem)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadQuery, "%v", err)
		return
	}
	bp, err := s.resolveSnapshotPlan(q, snap)
	if err != nil {
		f := planFailure(err)
		writeError(w, f.status, f.code, "%s", f.msg)
		return
	}
	staged := time.Since(start)
	schemas := [2]*relation.Schema{plan.Problem.Left.Schema, plan.Problem.Right.Schema}

	// Subscription lifetime: client disconnect or server shutdown. No
	// timeout — the stream is meant to outlive any single run.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.runCtx, cancel)()
	// Parked cond-waits on the change log cannot observe cancellation; a
	// broadcast wakes this subscription (and harmlessly the others).
	defer context.AfterFunc(ctx, s.catalog.log.wake)()

	sw := s.newStreamWriter(w, sse, cancel)
	defer sw.end()
	sw.begin()

	runID := s.runlog.newID()
	s.metrics.subStarted()
	sw.record("run", runRecord{
		Type: "run", ID: runID, Engine: "live",
		Dims: plan.Problem.Maps.Names(), Cached: bp.cached,
	})

	sink := &liveStreamSink{sw: sw, start: start}
	// contain runs one step on the subscription's state. A panic in it ends
	// only this subscription, as a failed run with a terminal internal error
	// record.
	contain := func(step func() error) error {
		return s.containStep(runID, func() error {
			if applyHook != nil {
				applyHook(runID)
			}
			return step()
		})
	}
	checkpoint := func(seq uint64) {
		sw.record("checkpoint", checkpointRecord{
			Type: "checkpoint", Seq: seq, Live: sink.live,
			ElapsedMillis: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	var (
		endRec    *errorRecord
		applied   int64
		batch     []catalogEvent
		truncated bool
	)

	var space *core.LiveSpace
	ss := &snapshotSink{live: sink, timeline: obs.NewTimeline(start)}
	err = contain(func() (err error) {
		space, err = s.streamSnapshot(ctx, cancel, runID, stage, bp, ss)
		return err
	})
	snapshot, progress := time.Since(start), ss.timeline.Quantiles()
	switch {
	case err == nil:
		checkpoint(max(snap.vers[0], snap.vers[1]))
	case ctx.Err() == nil || !errors.Is(err, ctx.Err()):
		rec := newErrorRecord(errInternal, "building the snapshot: %v", err)
		endRec = &rec
	}

	gone := func() bool { return ctx.Err() != nil }
loop:
	for endRec == nil {
		batch, snap.cursor, truncated = s.catalog.log.next(snap.cursor, batch[:0], gone)
		if truncated {
			rec := newErrorRecord(errReplayTruncated,
				"change ring truncated: subscription fell too far behind the feed")
			endRec = &rec
			s.metrics.replayTruncation()
			break
		}
		if gone() {
			break
		}
		for _, ev := range batch {
			if plan.Tables[0] != ev.relation && plan.Tables[1] != ev.relation {
				continue // a relation this subscription does not read
			}
			switch ev.kind {
			case eventDropped:
				rec := newErrorRecord(errRelationDropped,
					"relation %q was dropped; subscription terminated", ev.relation)
				endRec = &rec
				break loop
			case eventReplaced:
				rec := newErrorRecord(errRelationReplaced,
					"relation %q was replaced wholesale; re-subscribe for the new snapshot", ev.relation)
				endRec = &rec
				break loop
			}
			sink.seq = ev.seq
			c := ev.change
			applyErr := contain(func() (err error) {
				// A change reaches every side bound to its relation: both
				// sides of a self-join. An insert a side's selections filter
				// out, or a delete of a tuple the side never held, leaves it
				// as is but still advances the checkpoint.
				for i, tbl := range plan.Tables {
					sd, t := mapping.Side(i), relation.Tuple{ID: c.ID, Vals: c.Vals, JoinKey: c.JoinKey}
					switch {
					case tbl != ev.relation || err != nil:
					case c.Op == feed.OpInsert && (plan.Preds[i] == nil || plan.Preds[i].Eval(schemas[i], t)):
						err = space.ApplyInsert(sd, t, sink)
					case c.Op == feed.OpDelete && space.Has(sd, c.ID):
						err = space.ApplyDelete(sd, c.ID, sink)
					}
				}
				return err
			})
			if applyErr != nil {
				code := errInternal
				if errors.Is(applyErr, core.ErrNonFiniteOutput) {
					code = errBadQuery
				}
				rec := newErrorRecord(code, "applying change seq %d: %v", ev.seq, applyErr)
				endRec = &rec
				break loop
			}
			applied++
			checkpoint(ev.seq)
			if sw.fail {
				break loop
			}
		}
	}

	// The slot returns before the end becomes visible — the error record and
	// the /v1/runs record; subscriptionsLive reads the slots — so a client
	// that has seen its subscription end never finds it still holding one.
	release()
	if endRec != nil && !sw.fail {
		sw.record("error", *endRec)
	}
	elapsed := time.Since(start)
	s.metrics.subFinished(applied, sink.retr)

	outcome, reason, errMsg := "canceled", "disconnect", ""
	switch {
	case endRec != nil:
		outcome, reason = "failed", ""
		errMsg = endRec.Message
	case s.runCtx.Err() != nil:
		reason = "shutdown"
	}
	var st core.LiveStats
	if space != nil {
		st = space.Stats()
	}
	rr := RunRecord{
		ID: runID, Engine: "live", Query: truncate(req.Query, 512),
		Start: start, ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
		Outcome: outcome, Reason: reason, Error: errMsg,
		Results:        sink.n,
		StageMillis:    float64(staged.Microseconds()) / 1000,
		SnapshotMillis: float64(snapshot.Microseconds()) / 1000,
		Progress:       progress,
		Cached:         bp.cached,
		Phases:         bp.prof.Report(),
	}
	s.runlog.add(rr, nil)
	s.logger.Info("subscription",
		"id", runID, "outcome", outcome, "results", sink.n,
		"retractions", sink.retr, "changesApplied", applied,
		"comparisons", st.Comparisons,
		"stageMs", float64(staged.Microseconds())/1000,
		"snapshotMs", float64(snapshot.Microseconds())/1000,
		"elapsedMs", float64(elapsed.Microseconds())/1000)
}
