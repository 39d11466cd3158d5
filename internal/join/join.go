// Package join provides the equi-join substrate: a hash join over the int64
// join keys of two relations, plus join-selectivity estimation. The baselines consume whole-relation joins; the ProgXe core
// joins one input-partition pair at a time through its plan-resident key
// index, which enumerates Hash's exact order.
package join

import "progxe/internal/relation"

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
