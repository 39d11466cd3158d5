package core

import (
	"context"
	"fmt"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// Prepared is a reusable snapshot of the plan-construction phases of a ProgXe
// run: the canonicalized problem, the partitioned inputs as flat columns (its
// own copy of the values — nothing in it aliases the relations — with the
// right side in join-key-group order behind its key index, the one join
// substrate every run of the plan probes), and the surviving region
// blueprints after output-space look-ahead pruning. Everything a Plan holds
// is immutable once prepared — the partitions' columns and key indexes are
// never written during a run and the per-run mutable region state (ranks and
// cell coverage in fresh region structs materialized per run, the lifecycle
// in the run's own table) — so one Plan can back any number of concurrent
// RunPlanContext calls.
//
// A Prepared plan is only valid for engines whose plan-affecting options (InputCells,
// PushThrough, Partitioning) match the preparing engine's; RunPlanContext
// rejects mismatches. Run-time options (ordering, workers, output
// grid, tracing, profiling) may differ freely.
type Prepared struct {
	problem *smj.Problem       // canonicalized
	pref    *preference.Pareto // original orientation, for emission
	d       int

	lparts, rparts []*inputPartition
	blueprints     []regionBlueprint
	frontier       *grid.Frontier // of the candidate regions' UPPER corners

	pruned     int // regions eliminated by look-ahead pruning
	pushPruned int // source tuples removed by partial push-through

	opts planOpts
}

// regionBlueprint is the immutable construction-time core of one surviving
// region, in post-prune order (blueprint index == region id).
type regionBlueprint struct {
	a, b     *inputPartition
	rect     grid.Rect
	joinCard int
}

// planOpts is the plan-affecting subset of Options: the knobs that change
// which partitions and regions exist, as opposed to how a run processes them.
type planOpts struct {
	inputCells   int
	pushThrough  bool
	partitioning Partitioning
}

func (e *Engine) planOpts() planOpts {
	return planOpts{
		inputCells:   e.opts.InputCells,
		pushThrough:  e.opts.PushThrough,
		partitioning: e.opts.Partitioning,
	}
}

// Problem returns the canonicalized problem the plan was prepared from.
func (pl *Prepared) Problem() *smj.Problem { return pl.problem }

// Regions returns the number of surviving regions plus the count eliminated
// by look-ahead pruning — the workload a run of this plan starts from.
func (pl *Prepared) Regions() (live, pruned int) { return len(pl.blueprints), pl.pruned }

// materialize clones the blueprints into fresh per-run region structs: one
// backing allocation, ids in blueprint order. Cell coverage
// (minC/maxC) is left nil for buildSpace to fill, exactly like regions
// arriving straight from buildRegions.
func (pl *Prepared) materialize() []*region {
	backing := make([]region, len(pl.blueprints))
	out := make([]*region, len(pl.blueprints))
	for i := range pl.blueprints {
		bp := &pl.blueprints[i]
		backing[i] = region{
			id: i, a: bp.a, b: bp.b, rect: bp.rect,
			joinCard: bp.joinCard,
		}
		out[i] = &backing[i]
	}
	return out
}

// PrepareContext runs the plan-construction phases — canonicalization,
// partial push-through, input partitioning, region pairing, and look-ahead
// pruning — and snapshots them into a reusable Prepared plan without processing any
// tuple. The phases report to the engine's profiler exactly as a full run
// would (partition / region-build / prune), so a later RunPlanContext on a
// fresh profiler shows them at ~0: the whole point of caching the Plan.
func (e *Engine) PrepareContext(ctx context.Context, p *smj.Problem) (*Prepared, error) {
	var stats smj.Stats
	return e.prepare(smj.NewCanceler(ctx), p, &stats)
}

// prepare is the plan-construction half of RunContext. Partial counters
// (push-through pruning) land in stats even when a cancellation aborts the
// preparation, matching the historical RunContext behavior.
func (e *Engine) prepare(cancel *smj.Canceler, p *smj.Problem, stats *smj.Stats) (*Prepared, error) {
	pl, err := e.preparePartitions(cancel, p, stats)
	if err != nil {
		return nil, err
	}
	// Output space look-ahead (§III-A).
	regions, pruned, front, err := buildRegions(pl.lparts, pl.rparts, pl.problem.Maps, e.opts.Profiler)
	if err != nil {
		return nil, err
	}
	pl.pruned, pl.frontier = pruned, front
	pl.blueprints = make([]regionBlueprint, len(regions))
	for i, r := range regions {
		pl.blueprints[i] = regionBlueprint{a: r.a, b: r.b, rect: r.rect, joinCard: r.joinCard}
	}
	return pl, nil
}

// preparePartitions is prepare up to the partitioned inputs: problem
// validation (the output grid's size included), partial push-through and
// input partitioning under the configured method — an input grid above
// grid.MaxCells fails there. The returned plan has no regions yet.
func (e *Engine) preparePartitions(cancel *smj.Canceler, p *smj.Problem, stats *smj.Stats) (*Prepared, error) {
	prof := e.opts.Profiler
	cp, d, err := checkProblem(p)
	if err != nil {
		return nil, err
	}
	if err := e.checkOutputGrid(d); err != nil {
		return nil, err
	}
	left, right := cp.Left, cp.Right
	pl := &Prepared{problem: cp, pref: p.Pref, d: d, opts: e.planOpts()}

	tPartition := prof.Clock()
	if e.opts.PushThrough {
		var prunedL, prunedR int
		left, prunedL = smj.PushThroughContext(left, cp.Maps, mapping.Left, cancel)
		right, prunedR = smj.PushThroughContext(right, cp.Maps, mapping.Right, cancel)
		stats.PushPruned = prunedL + prunedR
		pl.pushPruned = prunedL + prunedR
		if err := cancel.Now(); err != nil {
			return nil, err
		}
	}

	pl.lparts, err = e.partition(left, cp.Maps, mapping.Left)
	if err != nil {
		return nil, err
	}
	pl.rparts, err = e.partition(right, cp.Maps, mapping.Right)
	if err != nil {
		return nil, err
	}
	prof.EndSequencer(obs.PhasePartition, tPartition)
	return pl, nil
}

// RunPlanContext evaluates a previously prepared Plan, streaming results to
// sink under the same contract as RunContext — identical emissions, trace
// events, and counters, minus the plan-construction work the Plan already
// paid for. The plan must have been prepared by an engine with the same
// plan-affecting options.
func (e *Engine) RunPlanContext(ctx context.Context, pl *Prepared, sink smj.Sink) (smj.Stats, error) {
	var stats smj.Stats
	if pl == nil {
		return stats, fmt.Errorf("core: nil plan")
	}
	if pl.opts != e.planOpts() {
		return stats, fmt.Errorf("core: plan was prepared under different plan-affecting options")
	}
	cancel := smj.NewCanceler(ctx)
	if err := cancel.Now(); err != nil {
		return stats, err
	}
	return e.runPlan(ctx, cancel, pl, sink, e.workers())
}
