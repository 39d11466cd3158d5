package core

import (
	"context"
	"fmt"
	"strings"

	"progxe/internal/core/sched"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/smj"
)

// Plan summarizes what the output-space look-ahead would do for a problem
// without performing any tuple-level work: partition counts, region counts
// and pruning, output-grid shape and cell marking. It is the "EXPLAIN" view
// of a ProgXe execution.
type Plan struct {
	LeftPartitions  int
	RightPartitions int
	InputCells      int // g actually used per dimension (left side); 0 for an auto-sized kd split
	OutputCells     int // k per output dimension
	Regions         int // live regions after pruning
	RegionsPruned   int // eliminated by look-ahead alone
	CoveredCells    int
	MarkedCells     int // statically marked non-contributing
	OutputBounds    grid.Rect
	EstimatedJoin   int // total join results across live regions
}

// lookAhead is the look-ahead of a real run up to the laid output space:
// prepare, fresh regions, buildSpace — what Explain and PlanBoxes report on.
func (e *Engine) lookAhead(p *smj.Problem) (*Prepared, []*region, *space, error) {
	ctx := context.Background()
	var stats smj.Stats
	pl, err := e.prepare(smj.NewCanceler(ctx), p, &stats)
	if err != nil {
		return nil, nil, nil, err
	}
	regions := pl.materialize()
	s, err := buildSpace(regions, pl.frontier, pl.d, e.outputCells(pl.d), &stats, e.workers())
	return pl, regions, s, err
}

// Explain runs the look-ahead phases of the engine (§III-A) and reports the
// resulting plan.
func Explain(p *smj.Problem, opts Options) (Plan, error) {
	var plan Plan
	e := New(opts)
	pl, regions, s, err := e.lookAhead(p)
	if err != nil {
		return plan, err
	}
	plan.LeftPartitions = len(pl.lparts)
	plan.RightPartitions = len(pl.rparts)
	plan.InputCells = e.opts.InputCells
	if plan.InputCells == 0 && e.opts.Partitioning == PartitionGrid {
		n := 0
		for _, part := range pl.lparts {
			n += part.len()
		}
		plan.InputCells = autoCells(n, max(1, len(pl.problem.Maps.UsedAttrs(mapping.Left))))
	}
	plan.Regions, plan.RegionsPruned = pl.Regions()
	for _, r := range regions {
		plan.EstimatedJoin += r.joinCard
	}
	plan.OutputCells = e.outputCells(pl.d)
	plan.CoveredCells = len(s.cellList)
	plan.MarkedCells = s.stats.CellsMarked
	if len(regions) > 0 {
		b := s.g.Bounds()
		plan.OutputBounds = grid.Rect{Lower: b.Lo, Upper: b.Hi}
	}
	return plan, nil
}

// PlanBoxes runs the look-ahead phases (§III-A) and returns the live
// regions' coordinate boxes on the output grid (aliasing, read-only) together
// with the grid's per-dimension cell counts — the input of
// sched.NewProgressive, the EL-Graph scheduler the engine no longer runs. The
// benchmark's sched.* cells drive it over these boxes; the core package
// imports sched only for this return type.
func PlanBoxes(p *smj.Problem, opts Options) ([]sched.Box, []int, error) {
	_, regions, s, err := New(opts).lookAhead(p)
	if err != nil || len(regions) == 0 {
		return nil, nil, err
	}
	boxes := make([]sched.Box, len(regions))
	for i, r := range regions {
		boxes[i] = sched.Box{Min: r.minC, Max: r.maxC}
	}
	return boxes, s.dims(), nil
}

// PlanRects runs the look-ahead pairing of §III-A and returns every
// candidate region's output-space enclosure BEFORE domination pruning — the
// exact input of the region-pruning pass. Benchmarks use it to measure the
// frontier pruning pass against the retained O(n²) scan in isolation.
func PlanRects(p *smj.Problem, opts Options) ([]grid.Rect, error) {
	var stats smj.Stats
	pl, err := New(opts).preparePartitions(smj.NewCanceler(context.Background()), p, &stats)
	if err != nil {
		return nil, err
	}
	all, err := pairRegions(pl.lparts, pl.rparts, pl.problem.Maps)
	if err != nil {
		return nil, err
	}
	return regionRects(all), nil
}

// String renders the plan as a multi-line report.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "input partitions:  %d × %d (g=%d)\n", p.LeftPartitions, p.RightPartitions, p.InputCells)
	fmt.Fprintf(&sb, "regions:           %d live, %d pruned by look-ahead\n", p.Regions, p.RegionsPruned)
	fmt.Fprintf(&sb, "estimated joins:   %d\n", p.EstimatedJoin)
	fmt.Fprintf(&sb, "output grid:       k=%d over %s\n", p.OutputCells, p.OutputBounds)
	fmt.Fprintf(&sb, "covered cells:     %d (%d marked non-contributing)", p.CoveredCells, p.MarkedCells)
	return sb.String()
}
