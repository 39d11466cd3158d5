package bench

import (
	"fmt"
	"io"
	"time"

	"progxe/internal/core"
	"progxe/internal/grid"
	"progxe/internal/smj"
)

// Region-pruning benchmark: the upper-corner frontier's pruning pass
// (grid.DominatedRects) against the retained O(n²) all-pairs scan, on
// the fine-partition workload's candidate region enclosures. The look-ahead
// pairing runs once (core.PlanRects) and both pruners see the identical
// float rect set, so the measurement isolates the pruning pass from
// partitioning and tuple-level work.

// runPruneSetup executes the pruning comparison figure: each variant is
// timed over the identical rect set (best of repeats), and the kept/pruned
// split is reported through the run stats (Regions = candidates,
// RegionsPruned = dominated).
func runPruneSetup(f Figure, w io.Writer, repeats int) []RunResult {
	p, err := f.Workload.Problem()
	if err != nil {
		fmt.Fprintf(w, "! workload error: %v\n", err)
		return nil
	}
	opts := FinePartitionOptions()
	if f.PruneOpts != nil {
		opts = *f.PruneOpts
	}
	rects, err := core.PlanRects(p, opts)
	if err != nil {
		fmt.Fprintf(w, "! look-ahead error: %v\n", err)
		return nil
	}
	fmt.Fprintf(w, "# %d candidate regions\n", len(rects))

	variants := []struct {
		name string
		run  func() []bool
	}{
		{"Prune (frontier)", func() []bool { return grid.DominatedRects(rects) }},
		{"Prune (O(n²) oracle)", func() []bool { return grid.DominatedRectsQuadratic(rects, 0) }},
	}
	var out []RunResult
	for _, v := range variants {
		time0 := func() (time.Duration, []bool) {
			start := time.Now()
			dominated := v.run()
			return time.Since(start), dominated
		}
		best, dominated := time0()
		for i := 1; i < repeats; i++ {
			if d, _ := time0(); d < best {
				best = d
			}
		}
		pruned := 0
		for _, d := range dominated {
			if d {
				pruned++
			}
		}
		out = append(out, RunResult{
			Engine:   v.name,
			Workload: f.Workload,
			Total:    best,
			Stats:    smj.Stats{Regions: len(rects), RegionsPruned: pruned},
		})
		fmt.Fprintf(w, "%-22s prune=%-12v candidates=%d pruned=%d\n",
			v.name, best.Round(time.Microsecond), len(rects), pruned)
	}
	if len(out) == 2 && out[0].Total > 0 {
		fmt.Fprintf(w, "# frontier speedup over O(n²) scan: %.2f×\n",
			float64(out[1].Total)/float64(out[0].Total))
	}
	return out
}
