// Package baseline implements the state-of-the-art comparison techniques of
// the paper's performance study (§VI-A): the blocking join-first
// skyline-later plans JF-SL and JF-SL+, the Fagin-style SAJ, and the
// Skyline-Sort-Merge-Join (SSMJ) of Jin et al. [8]. All engines share the
// smj.Engine contract; the blocking ones emit every result at the end of
// query processing, which is precisely the behaviour ProgXe improves on.
package baseline

import (
	"context"

	"progxe/internal/join"
	"progxe/internal/mapping"
	"progxe/internal/skyline"
	"progxe/internal/smj"
)

// JFSL is the traditional blocking plan of Fig. 1.b: evaluate the join fully,
// map every join result, then run a single skyline pass, and only then
// report results [1][6].
type JFSL struct {
	// PushThrough enables skyline partial push-through on both sources
	// before the join — the optimized JF-SL+ variant.
	PushThrough bool
}

var _ smj.Engine = (*JFSL)(nil)

// Name implements smj.Engine.
func (e *JFSL) Name() string {
	if e.PushThrough {
		return "JF-SL+"
	}
	return "JF-SL"
}

// Run implements smj.Engine.
func (e *JFSL) Run(p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	return e.RunContext(context.Background(), p, sink)
}

var _ smj.ContextEngine = (*JFSL)(nil)

// RunContext implements smj.ContextEngine: the join loop polls ctx and the
// run aborts with ctx.Err() before the blocking skyline pass once canceled.
// The skyline pass itself (skyline.Compute) is not interruptible — on large
// join outputs that single phase bounds this engine's abort latency.
func (e *JFSL) RunContext(ctx context.Context, p *smj.Problem, sink smj.Sink) (smj.Stats, error) {
	var stats smj.Stats
	cancel := smj.NewCanceler(ctx)
	cp, err := p.Canonicalized()
	if err != nil {
		return stats, err
	}
	left, right := cp.Left, cp.Right
	if e.PushThrough {
		var nl, nr int
		left, nl = smj.PushThroughContext(left, cp.Maps, mapping.Left, cancel)
		right, nr = smj.PushThroughContext(right, cp.Maps, mapping.Right, cancel)
		stats.PushPruned = nl + nr
		if err := cancel.Now(); err != nil {
			return stats, err
		}
	}

	d := cp.Maps.Dims()
	type cand struct {
		l, r int64
	}
	var ids []cand
	var pts [][]float64
	buf := make([]float64, d)
	stats.JoinResults = join.Hash(left.Tuples, right.Tuples, func(li, ri int) bool {
		if cancel.Check() != nil {
			return false
		}
		v := cp.Maps.Map(left.Tuples[li].Vals, right.Tuples[ri].Vals, buf)
		out := make([]float64, d)
		copy(out, v)
		pts = append(pts, out)
		ids = append(ids, cand{left.Tuples[li].ID, right.Tuples[ri].ID})
		return true
	})
	if err := cancel.Now(); err != nil {
		return stats, err
	}

	sky := skyline.Compute(pts)
	if err := cancel.Now(); err != nil {
		return stats, err
	}
	stats.DomComparisons = estimateComparisons(len(pts), len(sky))
	for _, i := range sky {
		sink.Emit(smj.Result{
			LeftID:  ids[i].l,
			RightID: ids[i].r,
			Out:     smj.Decanonicalize(p.Pref, pts[i]),
		})
	}
	stats.ResultCount = len(sky)
	return stats, nil
}

// estimateComparisons reports a coarse comparison count for engines whose
// skyline substrate does not count exactly: n candidates filtered against a
// window of up to s survivors.
func estimateComparisons(n, s int) int {
	if s == 0 {
		return 0
	}
	return n * s / 2
}
