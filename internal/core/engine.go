package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// Ordering selects the policy that picks the next region for tuple-level
// processing.
type Ordering int8

const (
	// OrderProgressive is ProgOrder (Algorithm 1): regions in descending
	// Benefit/Cost rank (Equation 8), ranked once before the first pick.
	OrderProgressive Ordering = iota
	// OrderRandom picks live regions uniformly at random — the paper's
	// "ProgXe (No-Order)" configuration (§VI-B).
	OrderRandom
	// OrderArrival processes regions in construction order (ablation).
	OrderArrival
)

// String names the ordering policy.
func (o Ordering) String() string {
	switch o {
	case OrderProgressive:
		return "progressive"
	case OrderRandom:
		return "random"
	case OrderArrival:
		return "arrival"
	default:
		return fmt.Sprintf("Ordering(%d)", int8(o))
	}
}

// Options configures the ProgXe engine.
type Options struct {
	// InputCells is the grid resolution g per used dimension on each input
	// source. 0 (the default) sizes the grid automatically so that the
	// region count stays small relative to the input cardinality.
	InputCells int
	// OutputCells is the output-space grid resolution k per dimension
	// (partition size δ in §VI-B). 0 (the default) picks k so the total
	// cell count stays near 4096 regardless of dimensionality, mirroring
	// the paper's observation that a good δ depends only on d.
	OutputCells int
	// Ordering is the region-ordering policy. Default OrderProgressive.
	Ordering Ordering
	// PushThrough enables skyline partial push-through on each source
	// before partitioning — the ProgXe+ variants.
	PushThrough bool
	// Seed drives the random ordering policy.
	Seed uint64
	// Partitioning selects the input space-partitioning structure
	// (uniform grid by default; kd median splits adapt to skew).
	Partitioning Partitioning
	// Workers is the number of candidate-prefetch goroutines that build
	// region streams ahead of the sequencer. 0 (the default) starts none:
	// the sequencer builds each stream inline at the region's turn. Negative
	// picks GOMAXPROCS. Any value yields a run (emissions, trace events,
	// every counter) byte-identical to the serial one — parallelism changes
	// wall-clock, never output.
	Workers int
	// Committers is inert (no code reads it); the next [benchmark] PR drops it with core.par.total_ms.wc.
	Committers int
	// SpeculateRounds is inert (no code reads it); the next [benchmark] PR drops it with core.par.total_ms.wcs.
	SpeculateRounds int
	// Trace, when non-nil, receives an Event for every region selection,
	// region completion, region discard, and cell emission. Intended for
	// debugging, demos and tests; adds no cost when nil.
	Trace func(Event)
	// Profiler, when non-nil, receives monotonic-clock phase attribution
	// for the run: setup phases and the sequencer's per-region stages on
	// the sequencer lane, prefetch work on worker lanes. Purely
	// observational — never consulted for decisions — so enabling it
	// cannot change the result stream. nil costs nothing.
	Profiler *obs.Profiler
}

func (o Options) withDefaults() Options {
	if o.InputCells < 0 {
		o.InputCells = 0 // auto
	}
	if o.OutputCells < 0 {
		o.OutputCells = 0 // auto
	}
	return o
}

// autoOutputCells returns the per-dimension output grid resolution targeting
// ≈4096 total cells: 64 for d ≤ 2, 16 for d = 3, 8 for d = 4, 5 for d = 5…
func autoOutputCells(d int) int {
	k := int(math.Floor(math.Pow(4096, 1/float64(d)) + 1e-9))
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	return k
}

// Engine is the ProgXe progressive SkyMapJoin engine. The zero value is not
// usable; construct with New.
type Engine struct {
	opts Options
}

// New returns a ProgXe engine with the given options.
func New(opts Options) *Engine {
	return &Engine{opts: opts.withDefaults()}
}

// outputCells resolves the output grid resolution k for d output dimensions.
func (e *Engine) outputCells(d int) int {
	if e.opts.OutputCells != 0 {
		return e.opts.OutputCells
	}
	return autoOutputCells(d)
}

// checkOutputGrid refuses an output grid of more than grid.MaxCells cells —
// k^d, which the auto resolution exceeds from d = 22 on.
func (e *Engine) checkOutputGrid(d int) error {
	k := e.outputCells(d)
	if _, err := grid.Size(slices.Repeat([]int{k}, d)); err != nil {
		return fmt.Errorf("core: output grid of %d cells per dimension over %d dimensions: %w", k, d, err)
	}
	return nil
}

// Name identifies the configured variant using the paper's naming.
func (e *Engine) Name() string {
	name := "ProgXe"
	if e.opts.PushThrough {
		name += "+"
	}
	if e.opts.Ordering != OrderProgressive {
		name += " (No-Order)"
	}
	return name
}

var _ smj.Engine = (*Engine)(nil)

// partition splits one input per the configured partitioning method. For
// kd splits, a positive InputCells g is interpreted as a total budget of
// g^d partitions, matching the grid's resolution semantics.
func (e *Engine) partition(rel *relation.Relation, maps *mapping.Set, side mapping.Side) ([]*inputPartition, error) {
	if e.opts.Partitioning == PartitionKD {
		maxParts := 0
		if g := e.opts.InputCells; g > 0 {
			maxParts = 1
			for range maps.UsedAttrs(side) {
				maxParts *= g
			}
		}
		return partitionInputKD(rel, maps, side, maxParts)
	}
	return partitionInput(rel, maps, side, e.opts.InputCells)
}

// Run evaluates the problem, streaming each result to sink as soon as it is
// provably part of the final skyline. The pipeline follows Fig. 2: output
// space look-ahead, progressive-driven ordering, tuple-level processing, and
// progressive result determination, repeated until every region is processed
// or eliminated.
func (e *Engine) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return e.RunContext(context.Background(), p, sink)
}

var _ smj.ContextEngine = (*Engine)(nil)

// RunContext is Run with cooperative cancellation: the framework loop polls
// ctx between region selections and inside tuple-level processing, aborting
// with ctx.Err() and the partial stats once the context is done. Results
// emitted before the abort are final skyline members; the stream is merely
// truncated.
func (e *Engine) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	var stats smj.Stats
	cancel := smj.NewCanceler(ctx)
	pl, err := e.prepare(cancel, p, &stats)
	if err != nil {
		return stats, err
	}
	return e.runPlan(ctx, cancel, pl, sink, e.workers())
}

// workers resolves the run's worker count from the engine options.
func (e *Engine) workers() int {
	if e.opts.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.opts.Workers
}

// runPlan is the tuple-processing half of RunContext: it materializes fresh
// per-run regions from the plan, lays the output space, and drives the
// framework loop. All observable behavior — emissions, trace events,
// counters — is identical whether the plan was prepared moments ago by
// RunContext or served from a cache.
func (e *Engine) runPlan(ctx context.Context, cancel *smj.Canceler, pl *Prepared, sink smj.Sink, workers int) (smj.Stats, error) {
	var stats smj.Stats
	prof := e.opts.Profiler
	cp, d := pl.problem, pl.d
	regions := pl.materialize()
	stats.PushPruned = pl.pushPruned
	stats.Regions = len(regions) + pl.pruned
	stats.RegionsPruned = pl.pruned
	outCells := e.outputCells(d)
	tSpace := prof.Clock()
	s, err := buildSpace(regions, pl.frontier, d, outCells, &stats, workers)
	if err != nil {
		return stats, err
	}
	prof.EndSequencer(obs.PhaseSpaceBuild, tSpace)
	s.prof = prof
	// Emission without per-result cloning: canonical preferences hand the
	// arena-backed survivor vector to the sink directly (survivors of
	// emitted cells are immutable and never recycled); non-canonical ones
	// decanonicalize into a fresh arena vector instead of mutating it.
	var neg []int
	for j, a := range pl.pref.Attributes() {
		if a.Order == preference.Highest {
			neg = append(neg, j)
		}
	}
	s.emit = func(t outTuple) {
		out := t.v
		if len(neg) > 0 {
			out = s.arena.get()
			copy(out, t.v)
			for _, j := range neg {
				out[j] = -out[j]
			}
		}
		sink.Emit(smj.Result{LeftID: t.leftID, RightID: t.rightID, Out: out})
	}

	run := &runState{
		engine:   e,
		problem:  cp,
		space:    s,
		regions:  regions,
		stats:    &stats,
		d:        d,
		outCells: outCells,
		cancel:   cancel,
		pool:     newPool(ctx, workers, s, regions, cp.Maps),
	}
	defer run.pool.stop()
	if e.opts.Trace != nil {
		s.traceEmit = func(c *cell, n int) {
			run.emitTrace(Event{Kind: EventCellEmitted, Cell: c.flat, Survivors: n})
		}
	}
	if err := run.loop(); err != nil {
		return stats, err
	}
	// A region's cell cover contains the cell of every row it joins; a row
	// outside it was dropped, so the stream is short.
	if run.uncovered > 0 {
		return stats, fmt.Errorf("core: %d join results mapped outside their region's cell cover (invariant violation)", run.uncovered)
	}

	// Completeness check: with all regions resolved, every unmarked
	// populated cell must have been emitted by the finalize cascade.
	if leftovers := s.unemitted(); len(leftovers) > 0 {
		return stats, fmt.Errorf("core: %d output cells retained unemitted survivors (invariant violation)", len(leftovers))
	}
	return stats, nil
}

// runState carries the per-run mutable state of the framework loop.
type runState struct {
	engine   *Engine
	problem  *smj.Problem
	space    *space
	regions  []*region
	stats    *smj.Stats
	d        int
	outCells int

	cancel *smj.Canceler
	pool   *pool // builds every region's candidate stream

	// order is the schedule, every region id once in pick order, and pos
	// its cursor; the loop skips the regions Line 9 discarded. state is every
	// region's lifecycle, by id.
	order []int32
	pos   int
	state []regionState

	roundNew [][]float64 // surviving vectors inserted by the current region
	// live lists, ascending, the ids of the regions Line 9 may still discard;
	// regions processed since the last sweep are squeezed out as it passes
	// them. lowers holds every region's LOWER corner (d values at id·d),
	// lowerSums its coordinate sum, roundMin the sweep's componentwise-minimum
	// scratch; all four are built by trackLive at the first sweep.
	live      []int32
	lowers    []float64
	lowerSums []float64
	roundMin  []float64
	// uncovered counts join results whose output cell no region covers — an
	// invariant violation that fails the run (see runPlan).
	uncovered int
}

// loop repeats pick → tuple-level processing → progressive determination
// until the order is exhausted (Fig. 2's cycle). The order is fixed before
// the first pick — by rank, or by the ablation policies — and the regions
// discarded along the way are skipped.
func (r *runState) loop() error {
	if len(r.regions) == 0 {
		return nil
	}
	r.state = make([]regionState, len(r.regions))
	opts := r.engine.opts
	prof := opts.Profiler

	tSched := prof.Clock()
	switch opts.Ordering {
	case OrderRandom, OrderArrival:
		r.order = make([]int32, len(r.regions))
		for i := range r.order {
			r.order[i] = int32(i)
		}
		if opts.Ordering == OrderRandom {
			rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15))
			rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
		}
	default:
		r.order = r.rankOrder()
	}
	prof.EndSequencer(obs.PhaseSched, tSched)
	r.pool.start(r.order)

	for {
		if err := r.cancel.Now(); err != nil {
			return err
		}
		for r.pos < len(r.order) && r.state[r.order[r.pos]] != regionLive {
			r.pos++
		}
		if r.pos == len(r.order) {
			return nil
		}
		reg := r.regions[r.order[r.pos]]
		r.pos++
		r.emitTrace(Event{Kind: EventRegionChosen, Region: reg.id, Rank: reg.rank})
		if err := r.process(reg); err != nil {
			return err
		}
	}
}

// rankOrder is ProgOrder (Algorithm 1) as one sort: every region is ranked
// once by analyse-Cost-vs-Benefit in the state before the first pick, and
// the order is best rank first, ties by ascending id — the order ProgOrder's
// queue pops regions of equal standing in. Its EL-Graph decides only a
// handful of picks per run, so the sort reproduces its schedule but for
// the order of regions whose build-time rank is 0.
func (r *runState) rankOrder() []int32 {
	counts := progCounts(r.space, len(r.regions))
	ranks := make([]float64, len(r.regions))
	order := make([]int32, len(r.regions))
	for i, reg := range r.regions {
		analyse(reg, counts[i], r.d, r.outCells)
		ranks[i], order[i] = reg.rank, int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(ranks[b], ranks[a]), cmp.Compare(a, b))
	})
	return order
}

// process runs tuple-level processing (§III-B) for one region, then the
// progressive determination cascade and Algorithm 1's Line 9 discards. A
// non-nil error means the run was canceled mid-region and must abort.
func (r *runState) process(reg *region) error {
	r.state[reg.id] = regionProcessed
	r.roundNew = r.roundNew[:0]
	joinedBefore := r.stats.JoinResults

	r.commit(reg)

	if err := r.cancel.Now(); err != nil {
		return err
	}

	r.emitTrace(Event{
		Kind:        EventRegionProcessed,
		Region:      reg.id,
		JoinResults: r.stats.JoinResults - joinedBefore,
		Survivors:   len(r.roundNew),
	})

	// Progressive result determination (Algorithm 2) over this region.
	prof := r.engine.opts.Profiler
	tDetermine := prof.Clock()
	r.space.regionDone(reg)

	// Algorithm 1, Line 9: discard live regions now dominated by tuples
	// generated in this round.
	r.discardDominated()

	// roundNew is consumed; vectors evicted this round can now be recycled.
	r.space.flushFree()
	prof.EndSequencer(obs.PhaseDetermine, tDetermine)
	return nil
}

// trackLive sets up discardDominated's view of the regions: their LOWER
// corners and corner sums flat, and every region Line 9 may discard — those
// not processed yet — live. It runs at the first sweep with survivors, not
// in front of the first result.
func (r *runState) trackLive() {
	n := len(r.regions)
	r.roundMin = make([]float64, r.d)
	r.live = make([]int32, 0, n)
	r.lowers = make([]float64, 0, n*r.d)
	r.lowerSums = make([]float64, n)
	for i, reg := range r.regions {
		if r.state[i] == regionLive {
			r.live = append(r.live, int32(i))
		}
		r.lowers = append(r.lowers, reg.rect.Lower...)
		for _, x := range reg.rect.Lower {
			r.lowerSums[i] += x
		}
	}
}

// discardDominated is Algorithm 1, Line 9: every live region whose LOWER
// corner some survivor of this round dominates is discarded, in ascending
// region id — discard runs the determination cascade and trace events, and
// both follow that order. Only the live list is walked, and a region is
// refuted in O(d) where it can be: a dominator's coordinate sum is ≤ the
// corner's (tie-inclusive, see outTuple), and it is componentwise ≤ the
// corner only if the round's componentwise minimum is.
func (r *runState) discardDominated() {
	if len(r.roundNew) == 0 {
		return
	}
	if r.lowers == nil {
		r.trackLive()
	}
	d := r.d
	minV, minSum := r.roundMin, math.Inf(1)
	copy(minV, r.roundNew[0])
	for _, v := range r.roundNew {
		sum := 0.0
		for i, x := range v {
			sum += x
			minV[i] = min(minV[i], x)
		}
		minSum = min(minSum, sum)
	}
	keep := r.live[:0]
	for _, id := range r.live {
		if r.state[id] != regionLive {
			continue // processed since the last sweep
		}
		if r.lowerSums[id] >= minSum && r.roundDominates(r.lowers[int(id)*d:int(id)*d+d]) {
			r.discard(r.regions[id])
		} else {
			keep = append(keep, id)
		}
	}
	r.live = keep
}

// roundDominates reports whether a survivor of this round dominates the
// corner, after the O(d) refutation by the round's componentwise minimum.
func (r *runState) roundDominates(lower []float64) bool {
	for i, m := range r.roundMin {
		if m > lower[i] {
			return false
		}
	}
	for _, v := range r.roundNew {
		if preference.DominatesMin(v, lower) {
			return true
		}
	}
	return false
}

// commit takes the region's candidate stream — prefetched by a worker or
// built inline — and runs the tuple-level protocol on each candidate in the
// canonical stream order, so the observable run is the same for any worker
// count. Stream construction reports as prefetch time, the protocol as
// commit time.
func (r *runState) commit(reg *region) {
	prof := r.engine.opts.Profiler
	tTake := prof.Clock()
	buf, n := r.pool.take(reg, r.cancel)
	prof.EndSequencer(obs.PhasePrefetch, tTake)
	tCommit := prof.Clock()
	s, d := r.space, r.d
	for k := range buf.cands[:n] {
		if r.cancel.Check() != nil {
			break
		}
		cd := &buf.cands[k]
		c := s.cellAt(cd.flat)
		if c == nil {
			r.uncovered++
			continue
		}
		if cv, ok := s.insert(c, cd.leftID, cd.rightID, buf.block[k*d:(k+1)*d], cd.sum); ok {
			r.roundNew = append(r.roundNew, cv)
		}
	}
	r.stats.JoinResults += n
	prof.EndSequencer(obs.PhaseCommit, tCommit)
	r.pool.finish(reg)
}

// discard eliminates a live region without processing it: its cells'
// RegCounts drain (possibly finalizing them) and the loop skips it.
func (r *runState) discard(reg *region) {
	r.state[reg.id] = regionDiscarded
	r.stats.RegionsDropped++
	r.emitTrace(Event{Kind: EventRegionDiscarded, Region: reg.id})
	r.pool.drop(reg)
	r.space.regionDone(reg)
}
