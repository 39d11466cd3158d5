package bench

import (
	"fmt"
	"io"
	"time"

	"progxe/internal/core"
	"progxe/internal/core/sched"
	"progxe/internal/smj"
)

// Scheduler-layer benchmark: the incremental EL-Graph (coordinate-box index
// + lazy rank refresh) against the retained batch O(n²) builder, on the
// fine-partition workload's region set. Both schedulers are driven through
// an identical full complete sequence with a trivial ranker, so the
// measurement isolates graph construction and edge release from tuple-level
// work and from the benefit model's progCount cost.

// schedRanker is the pure stand-in rank function for scheduler benchmarks:
// deterministic, collision-rich (forcing id tie-breaks), and free of engine
// state so both schedulers see identical values.
func schedRanker(id int) float64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return float64(x % (1 << 20))
}

// driveScheduler constructs a scheduler via mk and processes every region
// to completion, returning the wall-clock of setup+release and the
// scheduler's counters.
func driveScheduler(mk func() sched.Scheduler) (time.Duration, sched.Counters) {
	start := time.Now()
	s := mk()
	for {
		id, _, ok := s.Next()
		if !ok {
			break
		}
		s.Complete(id)
	}
	return time.Since(start), s.Counters()
}

// runSchedSetup executes the scheduler comparison figure: the workload's
// look-ahead builds the region boxes once, then each scheduler variant is
// timed over the identical complete sequence (best of repeats).
func runSchedSetup(f Figure, w io.Writer, repeats int) []RunResult {
	p, err := f.Workload.Problem()
	if err != nil {
		fmt.Fprintf(w, "! workload error: %v\n", err)
		return nil
	}
	opts := FinePartitionOptions()
	if f.SchedOpts != nil {
		opts = *f.SchedOpts
	}
	boxes, dims, err := core.PlanBoxes(p, opts)
	if err != nil {
		fmt.Fprintf(w, "! look-ahead error: %v\n", err)
		return nil
	}
	fmt.Fprintf(w, "# %d regions over output grid %v\n", len(boxes), dims)

	variants := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"Scheduler (incremental)", func() sched.Scheduler { return sched.NewProgressive(boxes, dims, schedRanker, 0) }},
		{"Scheduler (batch)", func() sched.Scheduler { return sched.NewBatch(boxes, dims, schedRanker, 0) }},
	}
	var out []RunResult
	for _, v := range variants {
		best, counters := driveScheduler(v.mk)
		for i := 1; i < repeats; i++ {
			if d, _ := driveScheduler(v.mk); d < best {
				best = d
			}
		}
		out = append(out, RunResult{
			Engine:   v.name,
			Workload: f.Workload,
			Total:    best,
			Stats:    smj.Stats{Regions: counters.Regions},
		})
		fmt.Fprintf(w, "%-26s setup+release=%-12v regions=%d edges=%d refreshes=%d\n",
			v.name, best.Round(time.Microsecond), counters.Regions, counters.Edges, counters.RankRefreshes)
	}
	if len(out) == 2 && out[0].Total > 0 {
		fmt.Fprintf(w, "# incremental speedup over batch: %.2f×\n",
			float64(out[1].Total)/float64(out[0].Total))
	}
	return out
}
