package core

import "fmt"

// EventKind classifies engine trace events.
type EventKind int8

// Trace event kinds, in rough pipeline order.
const (
	// EventRegionChosen fires when ProgOrder (or the configured policy)
	// selects a region for tuple-level processing.
	EventRegionChosen EventKind = iota
	// EventRegionProcessed fires after a region's tuple-level processing.
	EventRegionProcessed
	// EventRegionDiscarded fires when a live region is eliminated by newly
	// generated tuples without ever being processed.
	EventRegionDiscarded
	// EventCellEmitted fires when ProgDetermine releases a cell's
	// survivors to the sink.
	EventCellEmitted
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventRegionChosen:
		return "region-chosen"
	case EventRegionProcessed:
		return "region-processed"
	case EventRegionDiscarded:
		return "region-discarded"
	case EventCellEmitted:
		return "cell-emitted"
	default:
		return fmt.Sprintf("EventKind(%d)", int8(k))
	}
}

// Event is one step of an engine run, delivered to Options.Trace. Fields
// are populated per kind; unused fields are zero.
type Event struct {
	Kind EventKind
	// Region is the region id for region events.
	Region int
	// Rank is the region's Benefit/Cost rank (region-chosen; 0 under the
	// random and arrival orderings, which rank nothing).
	Rank float64
	// JoinResults is the number of join results the region produced
	// (region-processed only).
	JoinResults int
	// Survivors is the number of tuples that survived insertion
	// (region-processed) or were emitted (cell-emitted).
	Survivors int
	// Cell is the flat output-cell index (cell-emitted only).
	Cell int
}

// String renders the event compactly for logs.
func (e Event) String() string {
	switch e.Kind {
	case EventRegionChosen:
		return fmt.Sprintf("%s region=%d rank=%.3g", e.Kind, e.Region, e.Rank)
	case EventRegionProcessed:
		return fmt.Sprintf("%s region=%d joins=%d survivors=%d", e.Kind, e.Region, e.JoinResults, e.Survivors)
	case EventRegionDiscarded:
		return fmt.Sprintf("%s region=%d", e.Kind, e.Region)
	case EventCellEmitted:
		return fmt.Sprintf("%s cell=%d results=%d", e.Kind, e.Cell, e.Survivors)
	default:
		return e.Kind.String()
	}
}

// emitTrace delivers an event if tracing is enabled.
func (r *runState) emitTrace(e Event) {
	if r.engine.opts.Trace != nil {
		r.engine.opts.Trace(e)
	}
}
