package server

import (
	"fmt"
	"sync"
	"time"

	"progxe/internal/obs"
	"progxe/internal/smj"
)

// RunRecord is one completed (or aborted) run as kept by the run log and
// served from GET /v1/runs: identity, outcome, the progressiveness
// quantiles, and the phase breakdown.
type RunRecord struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	Query  string `json:"query,omitempty"`
	// Exec echoes the run-shaping knobs the run was granted — the same
	// object the stream's run record carries.
	Exec          ExecInfo  `json:"exec"`
	Start         time.Time `json:"start"`
	ElapsedMillis float64   `json:"elapsedMillis"`
	Outcome       string    `json:"outcome"` // completed | canceled | failed
	Reason        string    `json:"reason,omitempty"`
	Error         string    `json:"error,omitempty"`
	Results       int       `json:"results"`
	// StageMillis and SnapshotMillis are set on subscriptions only: the time
	// from admission until the response was committed — the checks that can
	// refuse the subscription (compilation, the register pass, finite mapped
	// outputs, the grid's size) and the plan-cache lookup of its batch plan —
	// and until the snapshot ended: its checkpoint written, or the snapshot
	// abandoned. A subscription's Cached, Progress and Phases describe its
	// snapshot: the plan-cache hit, the snapshot's emission milestones from
	// admission, and the batch run's phases.
	StageMillis    float64 `json:"stageMillis,omitempty"`
	SnapshotMillis float64 `json:"snapshotMillis,omitempty"`
	// Cached reports that the run reused a compiled plan from the plan
	// cache (partition / region-build / prune skipped).
	Cached bool `json:"cached,omitempty"`
	// Subscribers counts the clients the run's stream was fanned out to by
	// its run group (≥ 1 for /v1/query runs); zero for subscriptions.
	Subscribers int `json:"subscribers,omitempty"`
	// Progress is the run's emission timeline reduced to the paper's
	// milestones (TT-first/10%/50%/90%/last), measured from run start.
	Progress obs.Quantiles `json:"progress"`
	// Phases is the profiler's phase breakdown with serial-vs-parallel
	// attribution. Engines without profiler support leave it empty.
	Phases obs.Report `json:"phases"`
	// HasTrace reports whether GET /v1/runs/{id}/trace can serve a
	// Chrome-trace document for this run.
	HasTrace    bool      `json:"hasTrace,omitempty"`
	EngineStats smj.Stats `json:"engineStats"`
}

// runLog is a bounded ring of recent run records plus their optional trace
// documents, powering the /v1/runs introspection endpoints. Evicting a
// record drops its trace with it, so retained trace bytes are bounded by
// the ring size.
type runLog struct {
	mu     sync.Mutex
	nextID int64
	size   int
	recs   []RunRecord       // insertion order, oldest first
	traces map[string][]byte // trace JSON by run id, only for retained recs
}

func newRunLog(size int) *runLog {
	return &runLog{size: size, traces: make(map[string][]byte)}
}

// newID reserves the next run identifier ("r000001", …). IDs are assigned
// at admission so the stream header can carry the id before the run ends.
func (l *runLog) newID() string {
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.mu.Unlock()
	return fmt.Sprintf("r%06d", id)
}

// add records a finished run, evicting the oldest past the ring size.
func (l *runLog) add(rec RunRecord, trace []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(trace) > 0 {
		rec.HasTrace = true
		l.traces[rec.ID] = trace
	}
	l.recs = append(l.recs, rec)
	for len(l.recs) > l.size {
		delete(l.traces, l.recs[0].ID)
		l.recs[0] = RunRecord{} // release before reslicing
		l.recs = l.recs[1:]
	}
}

// list returns the retained records, newest first.
func (l *runLog) list() []RunRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RunRecord, len(l.recs))
	for i, r := range l.recs {
		out[len(out)-1-i] = r
	}
	return out
}

// get returns the record with the given id.
func (l *runLog) get(id string) (RunRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		if r.ID == id {
			return r, true
		}
	}
	return RunRecord{}, false
}

// trace returns the stored Chrome-trace document for a run.
func (l *runLog) trace(id string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.traces[id]
	return b, ok
}
