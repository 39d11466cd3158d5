package core

import (
	"slices"

	"progxe/internal/preference"
)

// survivor is one undominated tuple held in an output cell's buffer: its
// canonical (minimized) output vector v, the coordinate sum of v, and the
// cell type's payload p.
type survivor[P any] struct {
	v   []float64
	sum float64
	p   P
}

// survivors is the sum-ordered survivor buffer of one output cell (§III-B),
// shared by the batch space and the live space. ts is sorted ascending by
// sum; the caller picks the position among equal sums. minV/maxV are the
// componentwise min/max over ts — the survivor summary: the buffer can hold
// a dominator of t only if minV ≤ t everywhere, and a victim of t only if
// maxV ≥ t everywhere, so a whole cell refutes in O(d) before any tuple is
// touched. They are allocated on the first insert and valid only while ts is
// non-empty.
//
// The sum-tie rule: a dominator's float sum is ≤ its victim's. It is all-≤,
// and float addition rounds monotonically; in exact arithmetic the sum is
// strictly smaller, but rounding can erase the gap — (1e16, 0) dominates
// (1e16, 1) and both sum to 1e16. So every cutoff is tie-inclusive:
// dominators of a tuple of sum s end at firstAbove(s), and its victims start
// at firstNotBelow(s).
type survivors[P any] struct {
	ts         []survivor[P]
	minV, maxV []float64
}

// firstAbove returns the index of the first entry whose sum is > s.
func (b *survivors[P]) firstAbove(s float64) int {
	lo, hi := 0, len(b.ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.ts[mid].sum <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstNotBelow returns the index of the first entry whose sum is ≥ s.
func (b *survivors[P]) firstNotBelow(s float64) int {
	lo, hi := 0, len(b.ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.ts[mid].sum < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dominator returns the index of the first entry that dominates v (of sum
// s), or -1. Each dominance test adds one to *tests.
func (b *survivors[P]) dominator(v []float64, s float64, tests *int) int {
	if len(b.ts) == 0 {
		return -1
	}
	for i, m := range b.minV {
		if m > v[i] {
			return -1
		}
	}
	for j := range b.ts {
		if b.ts[j].sum > s {
			break
		}
		*tests++
		if preference.DominatesMin(b.ts[j].v, v) {
			return j
		}
	}
	return -1
}

// evict removes every entry that v (of sum s) dominates, calling gone on
// each in buffer order, and keeps the order and the summary exact. Each
// dominance test adds one to *tests. It reports whether any entry went.
func (b *survivors[P]) evict(v []float64, s float64, tests *int, gone func(survivor[P])) bool {
	if len(b.ts) == 0 {
		return false
	}
	for i, m := range b.maxV {
		if v[i] > m {
			return false
		}
	}
	start := b.firstNotBelow(s)
	keep := b.ts[:start]
	for _, e := range b.ts[start:] {
		*tests++
		if preference.DominatesMin(v, e.v) {
			gone(e)
			continue
		}
		keep = append(keep, e)
	}
	if len(keep) == len(b.ts) {
		return false
	}
	clear(b.ts[len(keep):])
	b.ts = keep
	b.refresh()
	return true
}

// insert places e at index at, which must keep ts sorted by sum, and widens
// the summary to cover it.
func (b *survivors[P]) insert(at int, e survivor[P]) {
	if b.minV == nil {
		d := len(e.v)
		buf := make([]float64, 2*d)
		b.minV, b.maxV = buf[:d:d], buf[d:]
	}
	if len(b.ts) == 0 {
		copy(b.minV, e.v)
		copy(b.maxV, e.v)
	} else {
		widenSummary(b.minV, b.maxV, e.v)
	}
	b.ts = slices.Insert(b.ts, at, e)
}

// deleteFunc removes every entry whose payload drop reports, keeping the
// order, and refreshes the summary if any went.
func (b *survivors[P]) deleteFunc(drop func(P) bool) {
	n := len(b.ts)
	if b.ts = slices.DeleteFunc(b.ts, func(e survivor[P]) bool { return drop(e.p) }); len(b.ts) < n {
		b.refresh()
	}
}

// refresh recomputes the summary from the entries.
func (b *survivors[P]) refresh() {
	for j, e := range b.ts {
		if j == 0 {
			copy(b.minV, e.v)
			copy(b.maxV, e.v)
			continue
		}
		widenSummary(b.minV, b.maxV, e.v)
	}
}

// widenSummary grows the min/max summary vectors to cover v.
func widenSummary(minV, maxV, v []float64) {
	for i, x := range v {
		if x < minV[i] {
			minV[i] = x
		}
		if x > maxV[i] {
			maxV[i] = x
		}
	}
}
