package core

import (
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

	idx := make([]int, len(rel.Tuples))
	for i := range idx {
		idx[i] = i
	}
	// The split sorts (value, position) keys, position being the member's
	// place in the order the previous level left: the keys are distinct, so
	// any sort lands on the one order a stable sort by value gives — which
	// the leaves' member order, and through it the join enumeration order of
	// every region, is defined by.
	type splitKey struct {
		v   float64
		pos int32
		m   int32
	}
	keys := make([]splitKey, len(idx))
	var leaves [][]int
	var split func(members []int, budget int)
	split = func(members []int, budget int) {
		if budget <= 1 || len(members) <= 1 {
			leaves = append(leaves, members)
			return
		}
		// Pick the used dimension with the widest spread among members.
		bestDim, bestSpread := -1, -1.0
		for _, a := range used {
			lo, hi := rel.Tuples[members[0]].Vals[a], rel.Tuples[members[0]].Vals[a]
			for _, m := range members[1:] {
				v := rel.Tuples[m].Vals[a]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo > bestSpread {
				bestSpread = hi - lo
				bestDim = a
			}
		}
		if bestSpread <= 0 {
			// All members identical on every used dimension.
			leaves = append(leaves, members)
			return
		}
		ks := keys[:len(members)]
		for i, m := range members {
			ks[i] = splitKey{v: rel.Tuples[m].Vals[bestDim], pos: int32(i), m: int32(m)}
		}
		slices.SortFunc(ks, func(a, b splitKey) int {
			if a.v < b.v {
				return -1
			}
			if a.v > b.v {
				return 1
			}
			return int(a.pos - b.pos)
		})
		for i, k := range ks {
			members[i] = int(k.m)
		}
		mid := len(members) / 2
		// Never split between equal key values: move the cut to the first
		// strictly larger value so partitions hold disjoint ranges.
		cut := mid
		for cut < len(members) &&
			rel.Tuples[members[cut]].Vals[bestDim] == rel.Tuples[members[mid-1]].Vals[bestDim] {
			cut++
		}
		if cut >= len(members) {
			leaves = append(leaves, members)
			return
		}
		split(members[:cut], budget/2)
		split(members[cut:], budget-budget/2)
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
