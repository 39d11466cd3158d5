package grid

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/preference"
)

// randRects draws n random rects. A small value pool forces corner ties and
// exact-equality cases (including duplicate and degenerate point rects) —
// the regime where the ≤-everywhere/<-somewhere strictness split matters; a
// zero pool draws continuous corners, where almost no two sums tie.
func randRects(rng *rand.Rand, n, d, pool int) []Rect {
	draw := func() float64 {
		if pool > 0 {
			return float64(rng.IntN(pool))
		}
		return rng.Float64()
	}
	rects := make([]Rect, n)
	for i := range rects {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := draw(), draw()
			if b < a {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		rects[i] = Rect{Lower: lo, Upper: hi}
	}
	return rects
}

// bruteDominatesPoint is the frontier's question evaluated directly: the
// upper corner of some rect dominates p.
func bruteDominatesPoint(rects []Rect, p []float64) bool {
	for _, r := range rects {
		if preference.DominatesMin(r.Upper, p) {
			return true
		}
	}
	return false
}

// TestRectIndexMatchesOracle is the pruning property test: randomized rect
// sets through DominatedRects vs the retained O(n²) oracle — small value
// pools (ties, duplicates, point rects), continuous corners, d = 1, 2, 3
// and 9 — demanding identical kept/pruned sets everywhere, and the same
// verdict from a frontier probed rect by rect. (The test and its shape names
// predate the frontier; they are the ids the suite's floor pins.)
func TestRectIndexMatchesOracle(t *testing.T) {
	modes := []struct {
		name    string
		d, pool int
		seed    uint64
	}{
		{"packed/ties", 3, 6, 3 << 21},
		{"packed/fenwick", 2, 12, 3 << 21},
		{"packed/fen-fallback", 2, 12, 3},
		{"coarse/continuous", 3, 0, 3 << 21},
		{"coarse/d=2", 2, 0, 3 << 21},
		{"slice/d=9", 9, 4, 3 << 21},
		{"d=1", 1, 8, 3 << 21},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(m.d)*977+uint64(m.pool), m.seed))
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.IntN(150)
				workers := rng.IntN(3) * 2
				rects := randRects(rng, n, m.d, m.pool)
				t.Run(fmt.Sprintf("trial %d (n=%d w=%d)", trial, n, workers), func(t *testing.T) {
					got, _ := DominatedRects(rects)
					want := DominatedRectsQuadratic(rects, workers)
					if !slices.Equal(got, want) {
						t.Fatalf("dominated sets diverge:\nfrontier %v\noracle   %v", got, want)
					}
					f := NewFrontier(rects)
					if f.Len() == 0 || f.Len() > n {
						t.Fatalf("frontier of %d rects has %d members", n, f.Len())
					}
					for y, r := range rects {
						if f.Dominates(r.Lower) != want[y] {
							t.Fatalf("Dominates(LOWER(%d)) = %v, oracle %v (rect %v)", y, !want[y], want[y], r)
						}
					}
				})
			}
		})
	}
}

// TestRectIndexStrictness pins the domination boundary cases: equal corners
// everywhere are not domination, equality in all but one dimension is.
func TestRectIndexStrictness(t *testing.T) {
	rects := []Rect{
		{Lower: []float64{1, 1}, Upper: []float64{1, 1}}, // point rect
		{Lower: []float64{1, 1}, Upper: []float64{1, 1}}, // its duplicate
		{Lower: []float64{1, 2}, Upper: []float64{2, 3}}, // dominated by 0 and 1 (tie in dim 0, strict in dim 1)
		{Lower: []float64{1, 1}, Upper: []float64{2, 2}}, // UPPER ties 0's LOWER... but LOWER too: no strict dim
	}
	want := []bool{false, false, true, false}
	if got, _ := DominatedRects(rects); !slices.Equal(got, want) {
		t.Fatalf("DominatedRects = %v, want %v", got, want)
	}
	if got := DominatedRectsQuadratic(rects, 0); !slices.Equal(got, want) {
		t.Fatalf("oracle = %v, want %v (fixture wrong)", got, want)
	}
	if f := NewFrontier(rects); f.Len() != 1 {
		t.Fatalf("frontier kept %d corners, want 1 (the duplicated point)", f.Len())
	}
}

// edgeRects draws rects from value pools chosen to hit the float edges the
// sum cutoff must survive: ±0 (equal, opposite sign bits), duplicates and
// point rects, and magnitudes at which a coordinate sum loses its low bits —
// 1e16+1 == 1e16 in float64, so a corner and a corner it dominates tie on
// the sum and may sort in either order.
func edgeRects(rng *rand.Rand, n, d int) []Rect {
	pool := []float64{math.Copysign(0, -1), 0, 1, 2, 1e16, 1e16 + 2, -1e16, 0.1, 0.2, 0.30000000000000004}
	rects := make([]Rect, 0, n)
	for len(rects) < n {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]
			if b < a {
				a, b = b, a
			}
			if rng.IntN(4) == 0 {
				b = a // degenerate side
			}
			lo[j], hi[j] = a, b
		}
		rects = append(rects, Rect{Lower: lo, Upper: hi})
		if rng.IntN(5) == 0 && len(rects) < n {
			rects = append(rects, rects[rng.IntN(len(rects))]) // exact duplicate
		}
	}
	return rects
}

// TestFrontierMatchesAllPairs is the frontier's own property test: for
// arbitrary query points — every rect's two corners (a query exactly equal
// to a member), and random points from the same edge pool — Dominates must
// agree with the all-pairs scan over every upper corner, for d = 1…6, on
// edge-value and continuous rect sets.
func TestFrontierMatchesAllPairs(t *testing.T) {
	for d := 1; d <= 6; d++ {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(d), 17))
			for trial := 0; trial < 60; trial++ {
				n := 1 + rng.IntN(80)
				var rects []Rect
				if trial%3 == 2 {
					rects = randRects(rng, n, d, 0)
				} else {
					rects = edgeRects(rng, n, d)
				}
				f := NewFrontier(rects)
				var queries [][]float64
				for _, r := range rects {
					queries = append(queries, r.Lower, r.Upper)
				}
				for q := 0; q < 2*n; q++ {
					r := edgeRects(rng, 1, d)[0]
					queries = append(queries, r.Upper)
				}
				for _, q := range queries {
					got, tests := f.Probe(q)
					if want := bruteDominatesPoint(rects, q); got != want {
						t.Fatalf("trial %d: Dominates(%v) = %v, all-pairs %v\nrects %v", trial, q, got, want, rects)
					}
					if tests > f.Len() {
						t.Fatalf("trial %d: %d tests against a frontier of %d", trial, tests, f.Len())
					}
				}
			}
		})
	}
}

// TestFrontierRoundedSumTie pins the tie-inclusive cutoff on the smallest
// case: (1e16, 0) dominates (1e16, 1) and both sum to 1e16 in float64. A
// strict cutoff would skip the dominator.
func TestFrontierRoundedSumTie(t *testing.T) {
	dominator := []float64{1e16, 0}
	victim := []float64{1e16, 1}
	if coordSum(dominator) != coordSum(victim) {
		t.Fatal("fixture: the sums no longer tie")
	}
	for _, rects := range [][]Rect{
		{{Lower: dominator, Upper: dominator}, {Lower: victim, Upper: victim}},
		{{Lower: victim, Upper: victim}, {Lower: dominator, Upper: dominator}},
	} {
		f := NewFrontier(rects)
		if !f.Dominates(victim) {
			t.Fatalf("%v: equal-sum dominator skipped", rects)
		}
		if f.Dominates(dominator) {
			t.Fatalf("%v: the dominator reads as dominated", rects)
		}
	}
}

// TestFrontierEmpty: no rects, no dominator.
func TestFrontierEmpty(t *testing.T) {
	if NewFrontier(nil).Dominates([]float64{1, 2}) {
		t.Fatal("empty frontier dominates")
	}
	if got, _ := DominatedRects(nil); len(got) != 0 {
		t.Fatalf("DominatedRects(nil) = %v", got)
	}
}
