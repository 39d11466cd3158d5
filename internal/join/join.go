// Package join provides the equi-join substrate: hash join and sort-merge
// join over the int64 join keys of two relations, plus join-selectivity
// estimation. The baselines consume whole-relation joins; the ProgXe core
// joins one input-partition pair at a time through its plan-resident key
// index, which enumerates Hash's exact order.
package join

import (
	"sort"

	"progxe/internal/relation"
)

// Pair is one join result: indices into the left and right tuple slices the
// join was computed over.
type Pair struct {
	L, R int
}

// Emit receives each join result as it is produced. Returning false stops
// the join early.
type Emit func(l, r int) bool

// Hash performs a hash equi-join between the tuples of left and right,
// streaming each matching (l, r) index pair to emit in deterministic order
// (left order outer, right build order inner). It always builds its table
// on right and probes with left; callers control which side is which.
// Returns the number of results emitted.
func Hash(left, right []relation.Tuple, emit Emit) int {
	if len(left) == 0 || len(right) == 0 {
		return 0
	}
	build := make(map[int64][]int, len(right))
	for i, t := range right {
		build[t.JoinKey] = append(build[t.JoinKey], i)
	}
	n := 0
	for li, t := range left {
		for _, ri := range build[t.JoinKey] {
			n++
			if !emit(li, ri) {
				return n
			}
		}
	}
	return n
}

// Merge performs a sort-merge equi-join, streaming matching index pairs.
// It sorts index permutations, not the tuples themselves.
func Merge(left, right []relation.Tuple, emit Emit) int {
	li := sortedByKey(left)
	ri := sortedByKey(right)
	n := 0
	i, j := 0, 0
	for i < len(li) && j < len(ri) {
		lk, rk := left[li[i]].JoinKey, right[ri[j]].JoinKey
		switch {
		case lk < rk:
			i++
		case lk > rk:
			j++
		default:
			// Find the extent of the equal-key runs on both sides.
			iEnd := i
			for iEnd < len(li) && left[li[iEnd]].JoinKey == lk {
				iEnd++
			}
			jEnd := j
			for jEnd < len(ri) && right[ri[jEnd]].JoinKey == rk {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					n++
					if !emit(li[a], ri[b]) {
						return n
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return n
}

func sortedByKey(ts []relation.Tuple) []int {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ts[idx[a]].JoinKey < ts[idx[b]].JoinKey })
	return idx
}

// Cardinality returns the exact number of equi-join results between the two
// tuple sets without materializing them.
func Cardinality(left, right []relation.Tuple) int {
	if len(left) == 0 || len(right) == 0 {
		return 0
	}
	counts := make(map[int64]int, len(left))
	for _, t := range left {
		counts[t.JoinKey]++
	}
	n := 0
	for _, t := range right {
		n += counts[t.JoinKey]
	}
	return n
}

// Selectivity returns the empirical join selectivity σ = |R ⋈ T| / (|R|·|T|).
func Selectivity(left, right []relation.Tuple) float64 {
	if len(left) == 0 || len(right) == 0 {
		return 0
	}
	return float64(Cardinality(left, right)) / (float64(len(left)) * float64(len(right)))
}
