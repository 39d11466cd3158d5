package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"progxe/internal/core"
	"progxe/internal/feed"
	"progxe/internal/mapping"
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

// applyHook, when non-nil, runs before a subscription builds its snapshot
// and before it applies each catalog change, with the subscription's run id.
// Tests set it to inject a fault into the snapshot build or the apply loop.
var applyHook func(runID string)

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

// handleSubscribe is POST /v1/subscribe: a never-ending live query. The body
// is the QueryRequest schema shared with /v1/query (same exec object); trace
// and limit are meaningless on an unbounded stream and rejected. The handler
// stages the query's output space (join, mapping, grid — every step that can
// fail), commits to the response, and
// streams the snapshot as the dominance pass proves it: result records in
// ascending coordinate-sum order, each one final, closed by a checkpoint. It
// then holds the space resident and folds in every catalog change to the
// subscribed relations — emitting result records for new skyline members,
// retract records for killed ones, and a checkpoint record after each
// applied change. The stream ends when the client disconnects, the server
// shuts down, a subscribed relation is dropped or wholesale-replaced, or the
// subscription falls off the bounded change log (replay_truncated).
//
// Exec parallelism knobs are accepted but not granted: live maintenance is
// serial by design (each change's repair work is tiny), so the echoed exec
// object reports zero workers.
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
	// Everything that can fail happens in staging, before the response is
	// committed: a bad relation gets the structured 4xx body, never a
	// half-open stream.
	stage, err := core.StageLive(plan.Problem)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadQuery, "%v", err)
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
		Dims: plan.Problem.Maps.Names(),
	})

	// The dominance pass streams the snapshot: each survivor is written the
	// moment it is proven, in ascending coordinate-sum order, and is final.
	sink := &liveStreamSink{sw: sw, start: start}
	// contain runs one step on the subscription's state. A panic in it ends
	// only this subscription, as a failed run with a terminal internal error
	// record.
	contain := func(step func() error) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
				s.logger.Error("subscription panicked", "id", runID, "panic", p, "stack", string(debug.Stack()))
			}
		}()
		if applyHook != nil {
			applyHook(runID)
		}
		return step()
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
		space     *core.LiveSpace
		snapshot  time.Duration
	)

	if err := contain(func() error { space = stage.Build(sink); return nil }); err != nil {
		rec := newErrorRecord(errInternal, "building the snapshot: %v", err)
		endRec = &rec
	} else {
		checkpoint(max(snap.vers[0], snap.vers[1]))
		snapshot = time.Since(start)
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
				rec := newErrorRecord(errInternal, "applying change seq %d: %v", ev.seq, applyErr)
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
	s.runlog.add(RunRecord{
		ID: runID, Engine: "live", Query: truncate(req.Query, 512),
		Start: start, ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
		Outcome: outcome, Reason: reason, Error: errMsg,
		Results:        sink.n,
		StageMillis:    float64(staged.Microseconds()) / 1000,
		SnapshotMillis: float64(snapshot.Microseconds()) / 1000,
	}, nil)
	s.logger.Info("subscription",
		"id", runID, "outcome", outcome, "results", sink.n,
		"retractions", sink.retr, "changesApplied", applied,
		"comparisons", st.Comparisons,
		"stageMs", float64(staged.Microseconds())/1000,
		"snapshotMs", float64(snapshot.Microseconds())/1000,
		"elapsedMs", float64(elapsed.Microseconds())/1000)
}
