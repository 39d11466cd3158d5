package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if got := p.Clock(); got != 0 {
		t.Fatalf("nil profiler Clock = %d, want 0", got)
	}
	p.EndSequencer(PhaseCommit, 0)
	p.EndWorker(PhasePrefetch, 1, 0)
	p.EnableSpans()
	if r := p.Report(); len(r.Phases) != 0 || r.SequencerMillis != 0 {
		t.Fatalf("nil profiler Report = %+v, want zero", r)
	}
	if s := p.Spans(); s != nil {
		t.Fatalf("nil profiler Spans = %v, want nil", s)
	}
	if !p.Epoch().IsZero() {
		t.Fatalf("nil profiler Epoch not zero")
	}
}

func TestProfilerAttribution(t *testing.T) {
	p := NewProfiler()
	// Synthesized intervals: sequencer commit 10ms, determine 5ms,
	// sched 5ms; workers prefetch 8ms total.
	now := p.Clock()
	p.EndSequencer(PhaseCommit, now-10*int64(time.Millisecond))
	p.EndSequencer(PhaseDetermine, now-5*int64(time.Millisecond))
	p.EndSequencer(PhaseSched, now-5*int64(time.Millisecond))
	p.EndWorker(PhasePrefetch, 1, now-3*int64(time.Millisecond))
	p.EndWorker(PhasePrefetch, 2, now-5*int64(time.Millisecond))

	r := p.Report()
	if r.SequencerMillis < 19 || r.SequencerMillis > 21 {
		t.Fatalf("SequencerMillis = %v, want ~20", r.SequencerMillis)
	}
	if r.WorkerMillis < 7 || r.WorkerMillis > 9 {
		t.Fatalf("WorkerMillis = %v, want ~8", r.WorkerMillis)
	}
	// Serial fraction = (commit+determine)/sequencer total = 15/20.
	if r.SerialCommitFraction < 0.70 || r.SerialCommitFraction > 0.80 {
		t.Fatalf("SerialCommitFraction = %v, want ~0.75", r.SerialCommitFraction)
	}
	var phases []string
	for _, ph := range r.Phases {
		phases = append(phases, ph.Phase)
	}
	want := []string{"sched", "prefetch", "commit", "determine"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Fatalf("phases = %v, want %v (pipeline order)", phases, want)
	}
	if s := r.String(); !strings.Contains(s, "commit=") || !strings.Contains(s, "prefetch=") {
		t.Fatalf("Report.String() = %q, want phase=millis pairs", s)
	}
}

func TestProfilerEmitExcludedFromTotals(t *testing.T) {
	p := NewProfiler()
	now := p.Clock()
	p.EndSequencer(PhaseDetermine, now-10*int64(time.Millisecond))
	p.EndSequencer(PhaseEmit, now-4*int64(time.Millisecond))
	r := p.Report()
	// Emit nests inside determine; totals must not double-count it.
	if r.SequencerMillis < 9 || r.SequencerMillis > 11 {
		t.Fatalf("SequencerMillis = %v, want ~10 (emit excluded)", r.SequencerMillis)
	}
	found := false
	for _, ph := range r.Phases {
		if ph.Phase == "emit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("emit phase missing from report rows: %+v", r.Phases)
	}
}

func TestProfilerConcurrentWorkers(t *testing.T) {
	p := NewProfiler()
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				start := p.Clock()
				p.EndWorker(PhasePrefetch, w, start)
			}
		}(w)
	}
	wg.Wait()
	// No assertion on totals (durations ~0); the point is the race detector.
	_ = p.Report()
}

func TestProfilerSpans(t *testing.T) {
	p := NewProfiler()
	p.EnableSpans()
	now := p.Clock()
	p.EndSequencer(PhaseCommit, now-int64(time.Millisecond))
	p.EndWorker(PhasePrefetch, 2, now-int64(time.Millisecond))
	spans := p.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byTrack := map[string]string{}
	for _, s := range spans {
		byTrack[s.Track] = s.Name
	}
	if byTrack["sequencer"] != "commit" || byTrack["worker 2"] != "prefetch" {
		t.Fatalf("span tracks wrong: %+v", byTrack)
	}
}

func TestTimelineQuantiles(t *testing.T) {
	start := time.Now().Add(-100 * time.Millisecond)
	tl := NewTimeline(start)
	for i := 0; i < 1000; i++ {
		tl.Observe()
	}
	q := tl.Quantiles()
	if q.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", q.Count)
	}
	// All observations happen "now", ~100ms after the backdated start.
	if q.FirstMillis < 90 || q.LastMillis < q.FirstMillis {
		t.Fatalf("quantiles not ordered from backdated start: %+v", q)
	}
	if q.P10Millis > q.P50Millis+1 || q.P50Millis > q.P90Millis+1 || q.P90Millis > q.LastMillis+1 {
		t.Fatalf("quantiles out of order: %+v", q)
	}
}

func TestTimelineDecimationBounded(t *testing.T) {
	tl := NewTimeline(time.Now())
	const n = 100_000
	for i := 0; i < n; i++ {
		tl.Observe()
	}
	if len(tl.samples) > maxTimelineSamples {
		t.Fatalf("samples = %d, exceeds bound %d", len(tl.samples), maxTimelineSamples)
	}
	q := tl.Quantiles()
	if q.Count != n {
		t.Fatalf("Count = %d, want %d", q.Count, n)
	}
	// First sample must remain the exact first emission.
	if tl.samples[0].index != 0 {
		t.Fatalf("first sample index = %d, want 0", tl.samples[0].index)
	}
	// Retained samples stay evenly spread: the milestone lookup error is
	// bounded by one stride.
	if got := tl.at(n / 2); got == tl.last && tl.samples[len(tl.samples)-1].index < n/2 {
		t.Fatalf("P50 lookup fell through to last sample")
	}
}

func TestTimelineNilAndEmpty(t *testing.T) {
	var tl *Timeline
	tl.Observe() // must not panic
	if q := tl.Quantiles(); q.Count != 0 {
		t.Fatalf("nil timeline quantiles = %+v", q)
	}
	empty := NewTimeline(time.Now())
	if q := empty.Quantiles(); q != (Quantiles{}) {
		t.Fatalf("empty timeline quantiles = %+v, want zero", q)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{Track: "sequencer", Name: "commit", Start: 10 * time.Microsecond, Dur: 40 * time.Microsecond},
		{Track: "regions", Name: "region 3", Start: 5 * time.Microsecond, Dur: 60 * time.Microsecond,
			Args: map[string]any{"rank": 1.5}},
	}
	instants := []Instant{
		{Track: "emissions", Name: "cell 7", Ts: 30 * time.Microsecond},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, instants); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	// The output must be a valid JSON array of trace events.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v\n%s", err, buf.String())
	}

	var metas, completes, instantsSeen int
	tidByName := map[string]float64{}
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			metas++
			args := ev["args"].(map[string]any)
			tidByName[args["name"].(string)] = ev["tid"].(float64)
		case "X":
			completes++
			if ev["name"] == "commit" {
				if ev["ts"].(float64) != 10 || ev["dur"].(float64) != 40 {
					t.Fatalf("commit span ts/dur wrong: %v", ev)
				}
			}
		case "i":
			instantsSeen++
			if ev["s"] != "t" {
				t.Fatalf("instant scope = %v, want t", ev["s"])
			}
		default:
			t.Fatalf("unexpected ph %v", ev["ph"])
		}
	}
	if metas != 3 || completes != 2 || instantsSeen != 1 {
		t.Fatalf("event counts meta=%d complete=%d instant=%d, want 3/2/1", metas, completes, instantsSeen)
	}
	// Sequencer is always track 0.
	if tidByName["sequencer"] != 0 {
		t.Fatalf("sequencer tid = %v, want 0", tidByName["sequencer"])
	}

	// TraceJSON returns the same document.
	doc, err := TraceJSON(spans, instants)
	if err != nil {
		t.Fatalf("TraceJSON: %v", err)
	}
	if !bytes.Equal(doc, buf.Bytes()) {
		t.Fatalf("TraceJSON differs from WriteChromeTrace output")
	}
}

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		s := ph.String()
		if s == "" || strings.HasPrefix(s, "Phase(") {
			t.Fatalf("phase %d has no name", ph)
		}
		if seen[s] {
			t.Fatalf("duplicate phase name %q", s)
		}
		seen[s] = true
	}
}
