package core

import (
	"fmt"
	"runtime"
	"strings"

	"progxe/internal/core/sched"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/smj"
)

// Plan summarizes what the output-space look-ahead would do for a problem
// without performing any tuple-level work: partition counts, region counts
// and pruning, output-grid shape, cell marking, and the EL-Graph profile.
// It is the "EXPLAIN" view of a ProgXe execution.
type Plan struct {
	LeftPartitions  int
	RightPartitions int
	InputCells      int // g actually used per dimension (left side)
	OutputCells     int // k per output dimension
	Regions         int // live regions after pruning
	RegionsPruned   int // eliminated by look-ahead alone
	CoveredCells    int
	MarkedCells     int // statically marked non-contributing
	Roots           int // EL-Graph roots
	Edges           int // EL-Graph edges
	OutputBounds    grid.Rect
	EstimatedJoin   int // total join results across live regions
}

// Explain runs the look-ahead phases of the engine (§III-A and the EL-Graph
// construction of §IV) and reports the resulting plan.
func Explain(p *smj.Problem, opts Options) (Plan, error) {
	var plan Plan
	opts = opts.withDefaults()
	if opts.Workers < 0 {
		// Same normalization RunContext applies before the setup passes.
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	cp, d, err := checkProblem(p)
	if err != nil {
		return plan, err
	}
	left, right := cp.Left, cp.Right
	if opts.PushThrough {
		left, _ = smj.PushThrough(left, cp.Maps, mapping.Left)
		right, _ = smj.PushThrough(right, cp.Maps, mapping.Right)
	}
	lparts, err := partitionInput(left, cp.Maps, mapping.Left, opts.InputCells)
	if err != nil {
		return plan, err
	}
	rparts, err := partitionInput(right, cp.Maps, mapping.Right, opts.InputCells)
	if err != nil {
		return plan, err
	}
	plan.LeftPartitions = len(lparts)
	plan.RightPartitions = len(rparts)
	plan.InputCells = opts.InputCells
	if plan.InputCells == 0 {
		plan.InputCells = autoCells(left.Len(), max(1, len(cp.Maps.UsedAttrs(mapping.Left))))
	}

	regions, pruned, front := buildRegions(lparts, rparts, cp.Maps, nil)
	plan.Regions = len(regions)
	plan.RegionsPruned = pruned
	for _, r := range regions {
		plan.EstimatedJoin += r.joinCard
	}

	outCells := opts.OutputCells
	if outCells == 0 {
		outCells = autoOutputCells(d)
	}
	plan.OutputCells = outCells
	var stats smj.Stats
	s, err := buildSpace(regions, front, d, outCells, &stats, opts.Workers)
	if err != nil {
		return plan, err
	}
	plan.CoveredCells = len(s.cellList)
	plan.MarkedCells = stats.CellsMarked
	if s.g != nil {
		b := s.g.Bounds()
		plan.OutputBounds = grid.Rect{Lower: b.Lo, Upper: b.Hi}
	}

	if len(regions) > 0 {
		dims := make([]int, d)
		for i := range dims {
			dims[i] = s.g.CellsPerDim(i)
		}
		c := sched.NewProgressive(schedBoxes(regions), dims, func(int) float64 { return 0 }, opts.Workers).Counters()
		plan.Edges = c.Edges
		plan.Roots = c.Roots
	}
	return plan, nil
}

// planPartitions is the look-ahead preamble shared by the Plan* benchmark
// entry points: problem validation, the pre-partitioning push-through a
// real run would apply (so the derived geometry matches RunContext's), and
// input partitioning under the configured method. opts must already carry
// defaults.
func planPartitions(p *smj.Problem, opts Options) (lparts, rparts []*inputPartition, cp *smj.Problem, d int, err error) {
	cp, d, err = checkProblem(p)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	left, right := cp.Left, cp.Right
	if opts.PushThrough {
		left, _ = smj.PushThrough(left, cp.Maps, mapping.Left)
		right, _ = smj.PushThrough(right, cp.Maps, mapping.Right)
	}
	e := New(opts)
	if lparts, err = e.partition(left, cp.Maps, mapping.Left); err != nil {
		return nil, nil, nil, 0, err
	}
	if rparts, err = e.partition(right, cp.Maps, mapping.Right); err != nil {
		return nil, nil, nil, 0, err
	}
	return lparts, rparts, cp, d, nil
}

// PlanBoxes runs the look-ahead phases (§III-A) and returns the live
// regions' coordinate boxes on the output grid together with the grid's
// per-dimension cell counts — the scheduler layer's exact input. Benchmarks
// use it to measure scheduler construction and edge release in isolation
// from tuple-level work.
func PlanBoxes(p *smj.Problem, opts Options) ([]sched.Box, []int, error) {
	opts = opts.withDefaults()
	if opts.Workers < 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	lparts, rparts, cp, d, err := planPartitions(p, opts)
	if err != nil {
		return nil, nil, err
	}
	regions, _, front := buildRegions(lparts, rparts, cp.Maps, nil)
	outCells := opts.OutputCells
	if outCells == 0 {
		outCells = autoOutputCells(d)
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, d, outCells, &stats, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	if len(regions) == 0 {
		return nil, nil, nil
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = s.g.CellsPerDim(i)
	}
	return schedBoxes(regions), dims, nil
}

// PlanRects runs the look-ahead pairing of §III-A and returns every
// candidate region's output-space enclosure BEFORE domination pruning — the
// exact input of the region-pruning pass. Benchmarks use it to measure the
// frontier pruning pass against the retained O(n²) scan in isolation.
func PlanRects(p *smj.Problem, opts Options) ([]grid.Rect, error) {
	opts = opts.withDefaults()
	lparts, rparts, cp, _, err := planPartitions(p, opts)
	if err != nil {
		return nil, err
	}
	return regionRects(pairRegions(lparts, rparts, cp.Maps)), nil
}

// String renders the plan as a multi-line report.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "input partitions:  %d × %d (g=%d)\n", p.LeftPartitions, p.RightPartitions, p.InputCells)
	fmt.Fprintf(&sb, "regions:           %d live, %d pruned by look-ahead\n", p.Regions, p.RegionsPruned)
	fmt.Fprintf(&sb, "estimated joins:   %d\n", p.EstimatedJoin)
	fmt.Fprintf(&sb, "output grid:       k=%d over %s\n", p.OutputCells, p.OutputBounds)
	fmt.Fprintf(&sb, "covered cells:     %d (%d marked non-contributing)\n", p.CoveredCells, p.MarkedCells)
	fmt.Fprintf(&sb, "EL-graph:          %d edges, %d roots", p.Edges, p.Roots)
	return sb.String()
}
