package baseline

import (
	"context"
	"sort"

	"progxe/internal/join"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// SSMJ re-implements the Skyline-Sort-Merge-Join of Jin et al. [8] as the
// paper describes it in §VI-A. Per source it maintains two active lists:
//
//	LS(S) — the source-level skyline, ignoring the join condition;
//	LS(N) — the group-level skyline for each join-attribute value.
//
// Phase 1 joins LS(S) ⋈ LS(S), maps, runs skyline comparisons, and reports
// the first batch. Phase 2 evaluates LS(S) ⋈ LS(N), LS(N) ⋈ LS(S) and
// LS(N) ⋈ LS(N) and reports the remainder at the end — results arrive in at
// most two batches, and never tuple-by-tuple.
//
// As the paper observes (§VII), the batch-1 guarantee of the original
// algorithm does not survive mapping functions: a phase-2 result can
// dominate a phase-1 result. The faithful configuration (Strict=false)
// reproduces the published behaviour and counts such events in
// Stats.MappedDiscarded; Strict=true defers every result to the end (the
// "reverts to JF-SL" behaviour the paper describes), guaranteeing that
// everything emitted is in the final skyline.
type SSMJ struct {
	// Strict defers all output to the end of processing, trading the
	// two-batch progressiveness for exact emission correctness.
	Strict bool
}

var _ smj.Engine = (*SSMJ)(nil)

// Name implements smj.Engine.
func (e *SSMJ) Name() string { return "SSMJ" }

type ssmjCand struct {
	l, r  int64
	v     []float64
	alive bool
	batch int // 1 = phase-1 result, 2 = phase-2 result
}

// Run implements smj.Engine.
func (e *SSMJ) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return e.RunContext(context.Background(), p, sink)
}

var _ smj.ContextEngine = (*SSMJ)(nil)

// RunContext implements smj.ContextEngine: the quadratic active-list setup
// and both join phases poll ctx and abort with ctx.Err() once the context
// is done.
func (e *SSMJ) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	var stats smj.Stats
	cancel := smj.NewCanceler(ctx)
	cp, err := p.Canonicalized()
	if err != nil {
		return stats, err
	}
	left, right := cp.Left, cp.Right
	d := cp.Maps.Dims()

	lsS := [2][]int{
		sourceSkyline(left, cp.Maps, mapping.Left, cancel),
		sourceSkyline(right, cp.Maps, mapping.Right, cancel),
	}
	if err := cancel.Now(); err != nil {
		return stats, err
	}
	lsN := [2]map[int64][]int{
		smj.GroupSkylinesContext(left, cp.Maps, mapping.Left, cancel),
		smj.GroupSkylinesContext(right, cp.Maps, mapping.Right, cancel),
	}
	if err := cancel.Now(); err != nil {
		return stats, err
	}
	stats.PushPruned = (left.Len() - countAll(lsN[0])) + (right.Len() - countAll(lsN[1]))

	inS := [2]map[int]bool{indexSet(lsS[0]), indexSet(lsS[1])}

	var cands []*ssmjCand
	// insert performs the incremental skyline maintenance shared by both
	// phases.
	insert := func(li, ri int, batch int) {
		stats.JoinResults++
		v := make([]float64, d)
		cp.Maps.Map(left.Tuples[li].Vals, right.Tuples[ri].Vals, v)
		c := &ssmjCand{l: left.Tuples[li].ID, r: right.Tuples[ri].ID, v: v, alive: true, batch: batch}
		for _, o := range cands {
			if !o.alive {
				continue
			}
			stats.DomComparisons++
			if preference.DominatesMin(o.v, c.v) {
				c.alive = false
				break
			}
			if preference.DominatesMin(c.v, o.v) {
				o.alive = false
			}
		}
		cands = append(cands, c)
	}

	// Phase 1: LS(S) ⋈ LS(S).
	lTuples := pick(left, lsS[0])
	rTuples := pick(right, lsS[1])
	join.Hash(lTuples.idx2tuple, rTuples.idx2tuple, func(a, b int) bool {
		if cancel.Check() != nil {
			return false
		}
		insert(lTuples.orig[a], rTuples.orig[b], 1)
		return true
	})
	if err := cancel.Now(); err != nil {
		return stats, err
	}

	emitted := make(map[*ssmjCand]bool)
	if !e.Strict {
		// First batch: the skyline of the phase-1 results.
		for _, c := range cands {
			if c.alive {
				e.emit(p, sink, c, &stats)
				emitted[c] = true
			}
		}
	}

	// Phase 2: the remaining three list combinations. LS(S) ⊆ LS(N), so the
	// union of all four joins equals LS(N) ⋈ LS(N); phase 2 contributes the
	// pairs with at least one non-source-skyline member.
	lAll := pickGroups(left, lsN[0])
	rAll := pickGroups(right, lsN[1])
	join.Hash(lAll.idx2tuple, rAll.idx2tuple, func(a, b int) bool {
		if cancel.Check() != nil {
			return false
		}
		li, ri := lAll.orig[a], rAll.orig[b]
		if inS[0][li] && inS[1][ri] {
			return true // already produced in phase 1
		}
		insert(li, ri, 2)
		return true
	})
	if err := cancel.Now(); err != nil {
		return stats, err
	}

	// Final batch: everything still alive and not yet reported.
	for _, c := range cands {
		if c.alive && !emitted[c] {
			e.emit(p, sink, c, &stats)
		}
		if !c.alive && emitted[c] {
			// A batch-1 result later dominated by a phase-2 result: the
			// false positive the paper's §VII discussion predicts.
			stats.MappedDiscarded++
		}
	}
	return stats, nil
}

func (e *SSMJ) emit(p *smj.Problem, sink smj.Sink, c *ssmjCand, stats *smj.Stats) {
	out := make([]float64, len(c.v))
	copy(out, c.v)
	sink.Emit(smj.Result{LeftID: c.l, RightID: c.r, Out: smj.Decanonicalize(p.Pref, out)})
	stats.ResultCount++
}

// sourceSkyline computes LS(S): the indices of tuples not dominated by any
// other tuple of the same source under the mapping monotonicity plan,
// ignoring join keys — one group for smj.PruneGroups, whose cancellation
// contract it keeps.
func sourceSkyline(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cancel *smj.Canceler) []int {
	all := make([]int, rel.Len())
	for i := range all {
		all[i] = i
	}
	one := map[int64][]int{0: all}
	smj.PruneGroups(rel, maps, side, one, cancel)
	return one[0]
}

type picked struct {
	idx2tuple []relation.Tuple
	orig      []int
}

func pick(rel *relation.Relation, idx []int) picked {
	p := picked{idx2tuple: make([]relation.Tuple, len(idx)), orig: idx}
	for i, j := range idx {
		p.idx2tuple[i] = rel.Tuples[j]
	}
	return p
}

func pickGroups(rel *relation.Relation, groups map[int64][]int) picked {
	var idx []int
	for _, g := range groups {
		idx = append(idx, g...)
	}
	// Deterministic order regardless of map iteration.
	sortInts(idx)
	return pick(rel, idx)
}

func indexSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

func countAll(groups map[int64][]int) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

func sortInts(a []int) { sort.Ints(a) }
