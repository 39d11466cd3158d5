package core

import (
	"fmt"
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
// trace-event stream, and every counter — across the full worker sweep,
// exactly like the plain differential harness.
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
			requireIdenticalRun(t, "serial+obs", em, ev, stats, serialEm, serialEv, serialStats)

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

			// Worker sweep, all observability on. The pool's goroutines are
			// the w prefetch workers: spans sit on the sequencer lane or on
			// worker lanes 1..w, and the only phase off the sequencer is
			// prefetch.
			for _, w := range workerSweep() {
				em, ev, stats, prof, _ := runObserved(t, p, Options{Workers: w})
				requireIdenticalRun(t, "parallel+obs", em, ev, stats, serialEm, serialEv, serialStats)
				if rep := prof.Report(); rep.SequencerMillis <= 0 {
					t.Fatalf("workers=%d profiler recorded no sequencer time", w)
				}
				for _, sp := range prof.Spans() {
					if sp.Name == obs.PhasePrecheck.String() {
						t.Fatalf("workers=%d: span of the removed stage recorded: %+v", w, sp)
					}
					if sp.Track == "sequencer" {
						continue
					}
					var lane int
					if _, err := fmt.Sscanf(sp.Track, "worker %d", &lane); err != nil || lane < 1 || lane > w {
						t.Fatalf("workers=%d: span on lane %q, want sequencer or worker 1..%d", w, sp.Track, w)
					}
					if sp.Name != obs.PhasePrefetch.String() {
						t.Fatalf("workers=%d: worker lane recorded phase %q, want prefetch only", w, sp.Name)
					}
				}
			}
		})
	}
}
