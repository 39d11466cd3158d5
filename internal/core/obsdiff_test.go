package core

import (
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// runObserved executes the engine with observability fully enabled — phase
// profiler with span recording, out-of-band trace recorder (multiplexed
// with the test's own event capture), result timeline — and returns the
// observable run exactly like runRecorded does.
func runObserved(t *testing.T, p *smj.Problem, opts Options) ([]emission, []Event, smj.Stats, *obs.Profiler, *TraceRecorder) {
	t.Helper()
	prof := obs.NewProfiler()
	prof.EnableSpans()
	rec := NewTraceRecorder(prof.Epoch())
	tl := obs.NewTimeline(prof.Epoch())

	var events []Event
	var got []emission
	opts.Profiler = prof
	opts.Trace = func(ev Event) {
		rec.Observe(ev)
		events = append(events, ev)
		if ev.Kind == EventCellEmitted {
			for i := len(got) - ev.Survivors; i < len(got); i++ {
				got[i].cell = ev.Cell
			}
		}
	}
	stats, err := New(opts).Run(p, smj.SinkFunc(func(res smj.Result) {
		tl.Observe()
		got = append(got, emission{cell: -1, leftID: res.LeftID, rightID: res.RightID, out: slices.Clone(res.Out)})
	}))
	if err != nil {
		t.Fatalf("observed run (workers=%d): %v", opts.Workers, err)
	}
	if q := tl.Quantiles(); int(q.Count) != len(got) {
		t.Fatalf("timeline observed %d emissions, sink received %d", q.Count, len(got))
	}
	return got, events, stats, prof, rec
}

// TestDifferentialObservability is the non-perturbation proof: runs with the
// profiler (spans on), the trace recorder and a timeline all enabled must
// reproduce the unobserved serial run bit for bit — emission sequence,
// trace-event stream, and every counter except DomComparisons — across the
// full worker sweep with both pooled commit paths forced, exactly like the
// plain differential harness.
func TestDifferentialObservability(t *testing.T) {
	for _, tc := range []struct {
		dist  datagen.Distribution
		d     int
		sigma float64
	}{
		{datagen.Independent, 3, 0.1},
		{datagen.AntiCorrelated, 4, 0.1},
	} {
		t.Run(tc.dist.String(), func(t *testing.T) {
			p := smokeProblem(t, 400, tc.d, tc.dist, tc.sigma, 42)

			// Baseline: serial, observability off.
			serialEm, serialEv, serialStats := runRecorded(t, p, Options{})

			// Serial with observability on.
			em, ev, stats, prof, rec := runObserved(t, p, Options{})
			compareRuns(t, "serial+obs", em, ev, stats, serialEm, serialEv, serialStats)

			// The profiler must actually have seen the run.
			rep := prof.Report()
			if rep.SequencerMillis <= 0 || len(rep.Phases) == 0 {
				t.Fatalf("profiler recorded nothing: %+v", rep)
			}
			if rep.SerialCommitFraction <= 0 || rep.SerialCommitFraction >= 1 {
				t.Fatalf("serial-commit fraction out of range: %v", rep.SerialCommitFraction)
			}
			if rec.Len() != len(serialEv) {
				t.Fatalf("trace recorder saw %d events, run produced %d", rec.Len(), len(serialEv))
			}
			spans, instants := rec.Spans()
			if len(spans) == 0 || len(instants) == 0 {
				t.Fatalf("trace recorder produced %d spans, %d instants", len(spans), len(instants))
			}
			if ps := prof.Spans(); len(ps) == 0 {
				t.Fatalf("profiler span log empty with EnableSpans")
			}

			// Worker sweep with both pooled commit paths forced, all
			// observability on.
			defer func(old int) { precheckMinCands = old }(precheckMinCands)
			for i, w := range workerSweep() {
				switch i {
				case 0:
					precheckMinCands = 1
				case 1:
					precheckMinCands = 1 << 30
				default:
					precheckMinCands = 256
				}
				popts := Options{Workers: w}
				em, ev, stats, prof, _ := runObserved(t, p, popts)
				compareRuns(t, "parallel+obs", em, ev, stats, serialEm, serialEv, serialStats)
				if i != 1 { // precheck disabled on pass 1 → maybe no worker time
					if rep := prof.Report(); rep.SequencerMillis <= 0 {
						t.Fatalf("workers=%d profiler recorded no sequencer time", w)
					}
				}
			}

			// Two workers at the production precheck threshold.
			precheckMinCands = 256
			em, ev, stats, _, _ = runObserved(t, p, Options{Workers: 2})
			compareRuns(t, "workers+obs", em, ev, stats, serialEm, serialEv, serialStats)
		})
	}
}

// compareRuns demands bit-for-bit equality with the serial baseline, modulo
// DomComparisons (execution placement, not verdicts).
func compareRuns(t *testing.T, label string, em []emission, ev []Event, stats smj.Stats, serialEm []emission, serialEv []Event, serialStats smj.Stats) {
	t.Helper()
	if len(em) != len(serialEm) {
		t.Fatalf("%s emitted %d results, baseline %d", label, len(em), len(serialEm))
	}
	for i := range em {
		g, s := em[i], serialEm[i]
		if g.cell != s.cell || g.leftID != s.leftID || g.rightID != s.rightID || !slices.Equal(g.out, s.out) {
			t.Fatalf("%s emission %d diverges: {cell %d (%d,%d) %v} vs {cell %d (%d,%d) %v}",
				label, i, g.cell, g.leftID, g.rightID, g.out, s.cell, s.leftID, s.rightID, s.out)
		}
	}
	if len(ev) != len(serialEv) {
		t.Fatalf("%s produced %d trace events, baseline %d", label, len(ev), len(serialEv))
	}
	for i := range ev {
		if ev[i] != serialEv[i] {
			t.Fatalf("%s event %d diverges: %v vs %v", label, i, ev[i], serialEv[i])
		}
	}
	ns, ss := stats, serialStats
	ns.DomComparisons, ss.DomComparisons = 0, 0
	if ns != ss {
		t.Fatalf("%s stats diverge: %+v vs %+v", label, ns, ss)
	}
}
