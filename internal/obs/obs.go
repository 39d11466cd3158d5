// Package obs is the run-level observability subsystem: a low-overhead phase
// profiler with serial-vs-parallel attribution, a progressiveness timeline
// reduced to time-to-fraction quantiles, and a Chrome-trace-event exporter
// for Perfetto.
//
// The package is deliberately engine-agnostic — it never imports the engine
// packages. The engine (internal/core) holds a *Profiler in its options and
// reports phase intervals into it; callers observe emissions into a Timeline
// from their own sinks; trace export consumes generic spans and instants.
//
// The design constraint that shapes every type here is non-perturbation: an
// engine run with observability enabled must produce the byte-identical
// result stream of an unobserved run (enforced by the differential harness
// in internal/core), and the instrumentation itself must be allocation-free
// on the hot path — the profiler only reads the monotonic clock and adds to
// preallocated atomic accumulators; the timeline appends to a geometrically
// decimated sample buffer whose size is bounded regardless of run length.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the engine pipeline for profiling. The set
// mirrors Fig. 2's pipeline plus the parallel runner's stage split.
type Phase uint8

const (
	// PhasePartition covers input preprocessing: partial push-through (when
	// enabled), input-space partitioning of both sources, and the right
	// side's join-key index.
	PhasePartition Phase = iota
	// PhaseRegionBuild covers partition pairing into candidate regions
	// (exact pair join cardinalities off the key index + interval
	// propagation).
	PhaseRegionBuild
	// PhasePrune covers region-level domination pruning: building the
	// upper-corner frontier and probing it once per candidate region.
	PhasePrune
	// PhaseSpaceBuild covers output grid construction, cell coverage,
	// index construction, and static cell marking.
	PhaseSpaceBuild
	// PhaseSched covers the scheduler layer: ranking the regions once
	// before the first pick, and region selection at the top of every round.
	PhaseSched
	// PhasePrefetch covers candidate-stream materialization (join matching,
	// mapping, cell routing, coordinate sums). On worker lanes this is the
	// prefetch workers' stream construction — the only work that runs off
	// the sequencer; on the sequencer lane it is the time spent waiting for
	// (or inline-building) the stream at a region's turn. Serial runs fold
	// this work into PhaseCommit.
	PhasePrefetch
	// PhasePrecheck is inert (the precheck stage is gone, nothing records it, so core.par.precheck_ms reads 0); the next [benchmark] PR drops it.
	PhasePrecheck
	// PhaseCommit covers the tuple-level protocol on the sequencer — every
	// dominance check, eviction and buffer insertion, whatever the worker
	// count. In serial runs this includes the fused join+map+insert loop.
	PhaseCommit
	// PhaseDetermine covers the progressive result determination cascade,
	// dominance discards of live regions, and the scheduler graph updates
	// after each round.
	PhaseDetermine
	// PhaseEmit covers sink delivery of emitted cells. Emission happens
	// inside the determination cascade, so this phase is a subset of
	// PhaseDetermine and is excluded from lane totals.
	PhaseEmit

	// NumPhases bounds the phase enum.
	NumPhases
)

// String names the phase the way reports and the trace viewer label it.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseRegionBuild:
		return "region-build"
	case PhasePrune:
		return "prune"
	case PhaseSpaceBuild:
		return "space-build"
	case PhaseSched:
		return "sched"
	case PhasePrefetch:
		return "prefetch"
	case PhasePrecheck:
		return "precheck"
	case PhaseCommit:
		return "commit"
	case PhaseDetermine:
		return "determine"
	case PhaseEmit:
		return "emit"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// phaseSpan is one recorded interval for trace export (EnableSpans only).
type phaseSpan struct {
	phase      Phase
	lane       int32 // 0 = sequencer, k > 0 = worker k
	start, dur int64 // nanos since epoch
}

// Profiler accumulates monotonic-clock phase intervals for one engine run,
// attributed to the sequencer goroutine or to worker goroutines. All methods
// are safe on a nil receiver (no-ops returning zero), so instrumented code
// needs no call-site guards; EndSequencer/EndWorker are safe for concurrent
// use (atomic adds). The zero value is not usable; construct with
// NewProfiler.
type Profiler struct {
	epoch time.Time
	seq   [NumPhases]atomic.Int64 // nanos on the sequencer goroutine
	par   [NumPhases]atomic.Int64 // nanos aggregated across workers

	spanMu    sync.Mutex
	spans     []phaseSpan
	recording atomic.Bool
}

// NewProfiler returns a profiler whose clock starts now.
func NewProfiler() *Profiler {
	return &Profiler{epoch: time.Now()}
}

// Epoch returns the profiler's clock origin, so companion recorders (the
// engine's trace recorder) can align their timestamps to the same timeline.
func (p *Profiler) Epoch() time.Time {
	if p == nil {
		return time.Time{}
	}
	return p.epoch
}

// EnableSpans turns on span recording for trace export: every phase interval
// is additionally kept as an individual span. Costs one mutex-guarded append
// per interval, so it is opt-in (the -trace-out / per-request trace paths).
func (p *Profiler) EnableSpans() {
	if p != nil {
		p.recording.Store(true)
	}
}

// Clock reads the profiler's monotonic clock: nanoseconds since the epoch.
// Returns 0 on a nil profiler, pairing with the no-op End methods so
// instrumented code can call unconditionally.
func (p *Profiler) Clock() int64 {
	if p == nil {
		return 0
	}
	return int64(time.Since(p.epoch))
}

// EndSequencer closes an interval opened at start (a Clock() value) on the
// sequencer lane, attributing it to the given phase.
func (p *Profiler) EndSequencer(ph Phase, start int64) {
	if p == nil {
		return
	}
	p.end(ph, 0, start)
}

// EndWorker closes an interval opened at start on a worker lane. worker
// numbers the lane for trace export (1-based across the pool); attribution
// aggregates worker lanes together.
func (p *Profiler) EndWorker(ph Phase, worker int, start int64) {
	if p == nil {
		return
	}
	p.end(ph, int32(worker), start)
}

func (p *Profiler) end(ph Phase, lane int32, start int64) {
	now := int64(time.Since(p.epoch))
	d := now - start
	if d < 0 {
		d = 0
	}
	if lane == 0 {
		p.seq[ph].Add(d)
	} else {
		p.par[ph].Add(d)
	}
	if p.recording.Load() {
		p.spanMu.Lock()
		p.spans = append(p.spans, phaseSpan{phase: ph, lane: lane, start: start, dur: d})
		p.spanMu.Unlock()
	}
}

// PhaseTotals is one phase's accumulated time, split by lane class.
type PhaseTotals struct {
	Phase           string  `json:"phase"`
	SequencerMillis float64 `json:"sequencerMillis"`
	WorkerMillis    float64 `json:"workerMillis,omitempty"`
}

// Report is the profiler's run-level digest: per-phase totals plus the
// serial-vs-parallel attribution.
type Report struct {
	// Phases lists every phase with non-zero time, in pipeline order.
	Phases []PhaseTotals `json:"phases"`
	// SequencerMillis totals the sequencer lane across phases (PhaseEmit
	// excluded — it nests inside PhaseDetermine).
	SequencerMillis float64 `json:"sequencerMillis"`
	// WorkerMillis totals the aggregated worker lanes across phases.
	WorkerMillis float64 `json:"workerMillis"`
	// SerialCommitFraction is the share of sequencer time spent in the
	// inherently serial stages (commit + determination cascade).
	SerialCommitFraction float64 `json:"serialCommitFraction"`
}

// Report reduces the accumulators to a Report. Safe on a nil profiler
// (returns the zero Report).
func (p *Profiler) Report() Report {
	var r Report
	if p == nil {
		return r
	}
	var seqTotal, serial int64
	for ph := Phase(0); ph < NumPhases; ph++ {
		s, w := p.seq[ph].Load(), p.par[ph].Load()
		if s == 0 && w == 0 {
			continue
		}
		r.Phases = append(r.Phases, PhaseTotals{
			Phase:           ph.String(),
			SequencerMillis: millis(s),
			WorkerMillis:    millis(w),
		})
		if ph != PhaseEmit {
			seqTotal += s
			r.WorkerMillis += millis(w)
		}
		if ph == PhaseCommit || ph == PhaseDetermine {
			serial += s
		}
	}
	r.SequencerMillis = millis(seqTotal)
	if seqTotal > 0 {
		r.SerialCommitFraction = float64(serial) / float64(seqTotal)
	}
	return r
}

// String renders the report as one compact line ("commit=1.2ms determine=0.8ms …"),
// the shape the per-run structured log attaches.
func (r Report) String() string {
	var sb strings.Builder
	for i, ph := range r.Phases {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.2fms", ph.Phase, ph.SequencerMillis)
		if ph.WorkerMillis > 0 {
			fmt.Fprintf(&sb, "+w%.2fms", ph.WorkerMillis)
		}
	}
	return sb.String()
}

// Spans converts the recorded span log (EnableSpans) into trace spans:
// sequencer intervals on the "sequencer" track, worker intervals on
// per-worker tracks.
func (p *Profiler) Spans() []Span {
	if p == nil {
		return nil
	}
	p.spanMu.Lock()
	defer p.spanMu.Unlock()
	out := make([]Span, 0, len(p.spans))
	for _, s := range p.spans {
		track := "sequencer"
		if s.lane > 0 {
			track = fmt.Sprintf("worker %d", s.lane)
		}
		out = append(out, Span{
			Track: track,
			Name:  s.phase.String(),
			Start: time.Duration(s.start),
			Dur:   time.Duration(s.dur),
		})
	}
	return out
}

func millis(nanos int64) float64 {
	return float64(nanos) / float64(time.Millisecond)
}
