package grid

import (
	"cmp"
	"slices"

	"progxe/internal/par"
	"progxe/internal/preference"
)

// Frontier answers the look-ahead's one dominance question — "does the
// UPPER corner of some rect dominate this point?" (≤ everywhere, < somewhere;
// a guaranteed-populated rect then eliminates everything at or above the
// point, Examples 2 and 3) — over a fixed rect set. It keeps only the
// Pareto-minimal upper corners, ordered by ascending coordinate sum:
//
//   - a corner some other corner is componentwise ≤ is redundant — whatever
//     it dominates, the smaller corner dominates too, strictness included —
//     so the minimal corners give every verdict the full set gives;
//   - a dominator's left-to-right float sum is ≤ its victim's (float
//     addition is monotone), never reliably <: sums that differ only below
//     the rounding step tie. Every cutoff here is therefore tie-inclusive.
//
// Corners must be finite and every rect must have Lower ≤ Upper.
type Frontier struct {
	d    int
	pts  []float64 // member corners, d values each, in sums order
	sums []float64 // coordinate sum of each member, ascending
}

// coordSum is the left-to-right float sum the frontier orders and cuts by.
func coordSum(p []float64) float64 {
	s := 0.0
	for _, x := range p {
		s += x
	}
	return s
}

// NewFrontier builds the frontier of the rects' upper corners: one sort by
// coordinate sum, then a sort-filter pass that drops a corner exactly when an
// already kept one is componentwise ≤ it (equal corners dedupe). Two corners
// whose float sums tie may meet in either order; the pair is then kept whole,
// which costs a slot and no verdict.
func NewFrontier(rects []Rect) *Frontier {
	f := &Frontier{}
	if len(rects) == 0 {
		return f
	}
	f.d = rects[0].Dims()
	type key struct {
		sum float64
		id  int32
	}
	keys := make([]key, len(rects))
	for i, r := range rects {
		keys[i] = key{coordSum(r.Upper), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.sum, b.sum); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
next:
	for _, k := range keys {
		u := rects[k.id].Upper
		for i := range f.sums {
			if preference.DominatesOrEqualMin(f.pts[i*f.d:(i+1)*f.d], u) {
				continue next
			}
		}
		f.pts = append(f.pts, u...)
		f.sums = append(f.sums, k.sum)
	}
	return f
}

// Len returns the number of Pareto-minimal corners kept.
func (f *Frontier) Len() int { return len(f.sums) }

// Dominates reports whether the upper corner of some rect dominates p.
func (f *Frontier) Dominates(p []float64) bool {
	dominated, _ := f.Probe(p)
	return dominated
}

// Probe is Dominates plus the number of dominance tests it spent: only
// members whose sum is ≤ p's are tested, stopping at the first dominator.
// The count is what the look-ahead's growth guard sums.
func (f *Frontier) Probe(p []float64) (dominated bool, tests int) {
	sp := coordSum(p)
	for i, s := range f.sums {
		if s > sp {
			break
		}
		tests++
		if preference.DominatesMin(f.pts[i*f.d:(i+1)*f.d], p) {
			return true, tests
		}
	}
	return false, tests
}

// DominatedRects reports, for every rect, whether another rect's upper
// corner dominates its lower corner — the region-level pruning verdict of
// Output Space Look-Ahead step 1 — and returns the frontier of the upper
// corners it read the verdicts off. A rect never dominates itself (Lower ≤
// Upper leaves no strict dimension), and a dominated rect's upper corner is
// never Pareto-minimal, so the frontier of all the rects is also the
// frontier of the survivors.
func DominatedRects(rects []Rect) ([]bool, *Frontier) {
	f := NewFrontier(rects)
	dominated := make([]bool, len(rects))
	for i, r := range rects {
		dominated[i] = f.Dominates(r.Lower)
	}
	return dominated, f
}

// DominatedRectsQuadratic is the all-pairs pruning scan — the differential
// oracle for DominatedRects and the baseline its figure measures against.
// Each verdict is independent, so the scan fans out across workers (0 or 1 =
// serial) with results identical for any count.
func DominatedRectsQuadratic(rects []Rect, workers int) []bool {
	dominated := make([]bool, len(rects))
	par.For(len(rects), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j, y := range rects {
				if i != j && y.DominatesRect(rects[i]) {
					dominated[i] = true
					break
				}
			}
		}
	})
	return dominated
}
