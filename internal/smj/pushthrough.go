package smj

import (
	"slices"

	"progxe/internal/mapping"
	"progxe/internal/relation"
)

// PushThroughContext applies skyline partial push-through [1][10] to one
// source: within each join-key group, tuples dominated by another tuple of
// the same group under the mapping monotonicity plan cannot contribute any
// undominated output for any join partner and are removed. Pruning across
// groups is unsound (the join partner differs).
//
// It returns the (possibly shared) pruned relation and the number of tuples
// removed. A side without a push-through plan (mixed monotonicity or no used
// attribute) returns the input before any grouping. cancel (which may be
// nil) is polled as in PruneGroups. Once canceled it returns the input
// untouched; the caller aborts right after.
func PushThroughContext(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cancel *Canceler) (*relation.Relation, int) {
	if plan, err := maps.PushThrough(side); err != nil || len(plan.Attrs) == 0 {
		return rel, 0
	}
	groups := GroupSkylinesContext(rel, maps, side, cancel)
	if cancel.Now() != nil {
		return rel, 0
	}
	keep := make([]bool, len(rel.Tuples))
	pruned := len(rel.Tuples)
	for _, idxs := range groups {
		pruned -= len(idxs)
		for _, i := range idxs {
			keep[i] = true
		}
	}
	if pruned == 0 {
		return rel, 0
	}
	out := relation.New(rel.Schema)
	for i, t := range rel.Tuples {
		if keep[i] {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, pruned
}

// GroupSkylinesContext partitions the relation's tuples by join key and
// computes the group-level skyline of each group under the mapping
// monotonicity plan — the LS(N) lists maintained by SSMJ (§VI-A). The result
// maps each join key to the indices of its group-skyline tuples. cancel
// (which may be nil) is polled as in PruneGroups.
func GroupSkylinesContext(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cancel *Canceler) map[int64][]int {
	groups := make(map[int64][]int)
	for i, t := range rel.Tuples {
		groups[t.JoinKey] = append(groups[t.JoinKey], i)
	}
	PruneGroups(rel, maps, side, groups, cancel)
	return groups
}

// PruneGroups narrows every index list of groups, in order, to the tuples of
// rel that no other tuple of the same list dominates under the side's
// push-through plan. With mixed monotonicity (the soundness condition of
// mapping.Set.PushThrough) or no used attribute the lists stay whole. cancel
// (which may be nil) is polled before each tuple is tested — the scan is
// quadratic per list, so a canceled run must not have to wait it out. Once
// canceled it returns with the remaining lists unfiltered — unusable, but
// the caller aborts right after.
func PruneGroups(rel *relation.Relation, maps *mapping.Set, side mapping.Side, groups map[int64][]int, cancel *Canceler) {
	plan, err := maps.PushThrough(side)
	if err != nil || len(plan.Attrs) == 0 {
		return
	}
	ts := rel.Tuples
	for key, idxs := range groups {
		var keep []int
		for _, i := range idxs {
			if cancel.Check() != nil {
				return
			}
			if !slices.ContainsFunc(idxs, func(j int) bool { return j != i && plan.Dominates(ts[j].Vals, ts[i].Vals) }) {
				keep = append(keep, i)
			}
		}
		groups[key] = keep
	}
}
