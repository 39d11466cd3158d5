package core

import (
	"math/bits"
	"slices"

	"progxe/internal/mapping"
	"progxe/internal/relation"
)

// Partitioning selects the input space-partitioning method. §III notes the
// framework works with other space-partitioning structures than the uniform
// grid "with some modifications"; the kd-split partitioner realizes that
// remark: it recursively median-splits the input on the widest used
// dimension, producing balanced partitions that adapt to skew (uniform grids
// leave partitions empty under correlated data).
type Partitioning int8

const (
	// PartitionGrid is the paper's uniform multi-dimensional grid.
	PartitionGrid Partitioning = iota
	// PartitionKD recursively median-splits on the widest used dimension.
	PartitionKD
)

// String names the partitioning method.
func (p Partitioning) String() string {
	switch p {
	case PartitionGrid:
		return "grid"
	case PartitionKD:
		return "kd"
	default:
		return "unknown"
	}
}

// partitionInputKD splits the relation into at most maxParts balanced
// partitions by recursive median splits over the used attributes. Like the
// grid partitioner it returns exactly-sized partitions with tight bounding
// boxes and, on the right side, key indexes; unlike it, partition populations
// are near-uniform even on heavily skewed inputs.
//
// A leaf is a member set, not an order: each level takes the widest used
// dimension, selects the members' ⌊n/2⌋-th smallest value p on it — one order
// statistic, never a sort — and keeps v ≤ p left, so equal values are never
// separated and the leaves hold disjoint ranges. Both sides keep the order
// they had, which makes a leaf's rows the relation's order (the right side is
// then regrouped by join key, as for the grid).
func partitionInputKD(rel *relation.Relation, maps *mapping.Set, side mapping.Side, maxParts int) ([]*inputPartition, error) {
	if len(rel.Tuples) == 0 {
		return nil, nil
	}
	used := maps.UsedAttrs(side)
	if _, _, err := boundUsed(rel, used, side); err != nil {
		return nil, err
	}
	if maxParts <= 0 {
		// Auto-sizing keeps n << N (§IV): ≈ 1 partition per 48 tuples, at
		// most 64 per source, like the grid partitioner's autoCells.
		maxParts = int(float64(len(rel.Tuples)) / 48)
		if maxParts > 64 {
			maxParts = 64
		}
	}
	if maxParts < 1 {
		maxParts = 1
	}
	// An explicit budget may exceed the auto cap — the fine-partition
	// scheduler workloads drive fanouts of 10⁴–10⁵ region pairs — but is
	// still bounded to keep split recursion and region pairing sane.
	if maxParts > 4096 {
		maxParts = 4096
	}
	if len(used) == 0 || maxParts == 1 {
		return singlePartition(rel, side), nil
	}

	// The used columns, copied flat once: the value of used attribute j of
	// row m is cols[j·n+m], one indexed load instead of a tuple pointer chase.
	n := len(rel.Tuples)
	cols := make([]float64, len(used)*n)
	for m := range rel.Tuples {
		for j, a := range used {
			cols[j*n+m] = rel.Tuples[m].Vals[a]
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// One level's scratch, reused by every level: the members' values on the
	// split dimension, a second copy for the selection to reorder, and the
	// members that move right — at most ⌈n/2⌉, as the left side keeps at
	// least half, plus the one slot the pass below writes past them.
	vals, sel := make([]float64, n), make([]float64, n)
	spill := make([]int, (n+1)/2+1)
	var leaves [][]int
	var split func(members []int, budget int)
	split = func(members []int, budget int) {
		if budget <= 1 || len(members) <= 1 {
			leaves = append(leaves, members)
			return
		}
		// Pick the used dimension with the widest spread among members.
		var best []float64
		bestSpread := -1.0
		for j := range used {
			col := cols[j*n : (j+1)*n]
			lo, hi := col[members[0]], col[members[0]]
			for _, m := range members[1:] {
				v := col[m]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo > bestSpread {
				bestSpread = hi - lo
				best = col
			}
		}
		if bestSpread <= 0 {
			// All members identical on every used dimension.
			leaves = append(leaves, members)
			return
		}
		vs := vals[:len(members)]
		for i, m := range members {
			vs[i] = best[m]
		}
		// The cut is the lower half's largest value (±0 are one value).
		p := kthSmallest(sel[:copy(sel, vs)], len(members)/2-1, 2*bits.Len(uint(len(members))))
		// A stable two-way pass without a branch on the comparison: every
		// member is written to both sides' next slot and only the side it
		// belongs to advances (members[left] never overtakes the read).
		left, right := 0, 0
		for i, m := range members {
			members[left] = m
			spill[right] = m
			keep := 0
			if vs[i] <= p {
				keep = 1
			}
			left += keep
			right += 1 - keep
		}
		if right == 0 {
			leaves = append(leaves, members)
			return
		}
		copy(members[left:], spill[:right])
		split(members[:left], budget/2)
		split(members[left:], budget-budget/2)
	}
	split(idx, maxParts)

	counts := make([]int, len(leaves))
	for i, members := range leaves {
		counts[i] = len(members)
	}
	out := newPartitions(rel.Schema.Arity(), counts)
	for i, members := range leaves {
		for j, m := range members {
			out[i].set(j, &rel.Tuples[m])
		}
	}
	return finishPartitions(out, side), nil
}

// kthSmallest returns the k-th smallest value of s (k from 0), reordering s.
// It is Hoare's selection with a median-of-three pivot — no randomness, so a
// run is reproducible — and at most rounds partitioning passes: an input
// built to defeat the pivot rule falls back to sorting what is left, which
// bounds the work at O(n log n). s holds no NaN.
func kthSmallest(s []float64, k, rounds int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		if rounds == 0 {
			slices.Sort(s[lo : hi+1])
			break
		}
		rounds--
		// Median of three: the middle element clamped between the ends.
		a, c := s[lo], s[hi]
		if a > c {
			a, c = c, a
		}
		pivot := min(max(s[lo+(hi-lo)/2], a), c)
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi], and anything between j and i equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
