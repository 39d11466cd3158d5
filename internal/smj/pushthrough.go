package smj

import (
	"progxe/internal/mapping"
	"progxe/internal/relation"
)

// PushThroughContext applies skyline partial push-through [1][10] to one
// source: within each join-key group, tuples dominated by another tuple of
// the same group under the mapping monotonicity plan cannot contribute any
// undominated output for any join partner and are removed. Pruning across
// groups is unsound (the join partner differs), and pruning is skipped
// entirely when the mapping's monotonicity is mixed on this side (the
// soundness condition of mapping.Set.PushThrough).
//
// It returns the (possibly shared) pruned relation and the number of tuples
// removed. cancel (which may be nil) is polled inside the per-group
// dominance scans — the scan is quadratic per join-key group, so a canceled
// run must not have to wait it out. Once canceled it returns the input
// untouched; the caller aborts right after.
func PushThroughContext(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cancel *Canceler) (*relation.Relation, int) {
	plan, err := maps.PushThrough(side)
	if err != nil || len(plan.Attrs) == 0 {
		return rel, 0
	}
	groups := make(map[int64][]int)
	for i, t := range rel.Tuples {
		groups[t.JoinKey] = append(groups[t.JoinKey], i)
	}
	keep := make([]bool, len(rel.Tuples))
	for _, idxs := range groups {
		for _, i := range idxs {
			if cancel.Check() != nil {
				return rel, 0
			}
			dominated := false
			for _, j := range idxs {
				if i != j && plan.Dominates(rel.Tuples[j].Vals, rel.Tuples[i].Vals) {
					dominated = true
					break
				}
			}
			keep[i] = !dominated
		}
	}
	pruned := 0
	for _, k := range keep {
		if !k {
			pruned++
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
// monotonicity plan — the LS(N) lists maintained by SSMJ (§VI-A). If the plan
// is unavailable (mixed monotonicity) every tuple is its own group skyline
// member. The result maps each join key to the indices of its group-skyline
// tuples. cancel (which may be nil) is polled inside the per-group dominance
// scans; once canceled the remaining groups keep their unfiltered index
// lists — unusable, but the caller aborts right after.
func GroupSkylinesContext(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cancel *Canceler) map[int64][]int {
	groups := make(map[int64][]int)
	for i, t := range rel.Tuples {
		groups[t.JoinKey] = append(groups[t.JoinKey], i)
	}
	plan, err := maps.PushThrough(side)
	if err != nil || len(plan.Attrs) == 0 {
		return groups
	}
	for key, idxs := range groups {
		var keep []int
		for _, i := range idxs {
			if cancel.Check() != nil {
				return groups
			}
			dominated := false
			for _, j := range idxs {
				if i != j && plan.Dominates(rel.Tuples[j].Vals, rel.Tuples[i].Vals) {
					dominated = true
					break
				}
			}
			if !dominated {
				keep = append(keep, i)
			}
		}
		groups[key] = keep
	}
	return groups
}
