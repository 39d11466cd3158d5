package core

import (
	"fmt"
	"time"

	"progxe/internal/obs"
)

// timedEvent pairs an engine trace event with its out-of-band receipt time.
// The Event itself carries no timing — the differential harness compares
// Event streams bit for bit across worker counts, so timestamps must live
// beside the stream, never inside it.
type timedEvent struct {
	ev    Event
	nanos int64
}

// TraceRecorder timestamps the engine's Event stream on receipt, against
// its own monotonic epoch, and converts the recording into trace-export
// spans: each region's chosen→processed (or →discarded) window becomes one
// span on the "regions" track, each cell emission an instant on the
// "emissions" track.
//
// Observe is intended as (or inside) Options.Trace; events are delivered
// synchronously from the sequencer goroutine, so the recorder needs no
// locking and adds only a clock read and an append per event. Align the
// epoch with the run's Profiler (Profiler.Epoch) to land phase spans and
// region spans on one timeline.
type TraceRecorder struct {
	epoch  time.Time
	events []timedEvent
}

// NewTraceRecorder returns a recorder timestamping against epoch. A zero
// epoch starts the clock now.
func NewTraceRecorder(epoch time.Time) *TraceRecorder {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &TraceRecorder{epoch: epoch}
}

// Observe records one event at the current clock. Usable directly as
// Options.Trace, or called from a wrapping trace func when the caller
// multiplexes the stream.
func (r *TraceRecorder) Observe(ev Event) {
	r.events = append(r.events, timedEvent{ev: ev, nanos: int64(time.Since(r.epoch))})
}

// Len reports the number of recorded events.
func (r *TraceRecorder) Len() int { return len(r.events) }

// Spans reduces the recording to trace-export form. Region processing
// windows open at region-chosen and close at the matching region-processed;
// regions discarded without processing render as instants (their
// elimination has no duration of its own), as do cell emissions.
func (r *TraceRecorder) Spans() ([]obs.Span, []obs.Instant) {
	var spans []obs.Span
	var instants []obs.Instant
	open := map[int]timedEvent{} // region id → chosen event
	for _, te := range r.events {
		switch te.ev.Kind {
		case EventRegionChosen:
			open[te.ev.Region] = te
		case EventRegionProcessed:
			start := te.nanos
			args := map[string]any{
				"joins":     te.ev.JoinResults,
				"survivors": te.ev.Survivors,
			}
			if c, ok := open[te.ev.Region]; ok {
				start = c.nanos
				args["rank"] = c.ev.Rank
				delete(open, te.ev.Region)
			}
			spans = append(spans, obs.Span{
				Track: "regions",
				Name:  fmt.Sprintf("region %d", te.ev.Region),
				Start: time.Duration(start),
				Dur:   time.Duration(te.nanos - start),
				Args:  args,
			})
		case EventRegionDiscarded:
			instants = append(instants, obs.Instant{
				Track: "regions",
				Name:  fmt.Sprintf("discard region %d", te.ev.Region),
				Ts:    time.Duration(te.nanos),
			})
		case EventCellEmitted:
			instants = append(instants, obs.Instant{
				Track: "emissions",
				Name:  fmt.Sprintf("cell %d", te.ev.Cell),
				Ts:    time.Duration(te.nanos),
				Args:  map[string]any{"results": te.ev.Survivors},
			})
		}
	}
	return spans, instants
}
