package grid

import (
	"fmt"

	"progxe/internal/preference"
)

// Rect is an axis-aligned hyper-rectangle identified by its lower-bound and
// upper-bound corner points — the representation of both input partitions
// and output regions in the paper (Table I: LOWER(X) / UPPER(X)).
type Rect struct {
	Lower []float64
	Upper []float64
}

// Dims returns the rectangle's dimensionality.
func (r Rect) Dims() int { return len(r.Lower) }

// Contains reports whether p lies in the closed box [Lower, Upper].
func (r Rect) Contains(p []float64) bool {
	for i := range p {
		if p[i] < r.Lower[i] || p[i] > r.Upper[i] {
			return false
		}
	}
	return true
}

// DominatesRect reports whether some point guaranteed to exist in r
// dominates every point of other: UPPER(r) must dominate LOWER(other) in the
// Pareto sense (≤ everywhere, < somewhere). If r is guaranteed populated,
// a real tuple u ≤ UPPER(r) exists, and for any x ≥ LOWER(other),
// u ≤ UPPER(r) ≤ LOWER(other) ≤ x with strictness preserved in the strict
// dimension — so u dominates x (Example 2: R1,3 eliminates R3,1).
func (r Rect) DominatesRect(other Rect) bool {
	return preference.DominatesMin(r.Upper, other.Lower)
}

// Extend grows r in place to the smallest rectangle containing both r and
// other. r must own its corner slices.
func (r Rect) Extend(other Rect) {
	for i := range r.Lower {
		r.Lower[i] = min(r.Lower[i], other.Lower[i])
		r.Upper[i] = max(r.Upper[i], other.Upper[i])
	}
}

// String renders the rectangle as [(l1,..,ld)(u1,..,ud)], the notation used
// in the paper's running example.
func (r Rect) String() string {
	return fmt.Sprintf("[%v %v]", r.Lower, r.Upper)
}
