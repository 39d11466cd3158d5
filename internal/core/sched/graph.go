package sched

import (
	"progxe/internal/grid"
	"progxe/internal/par"
)

// The EL-Graph of §IV-B has an edge X → Y iff some output partition of X
// strictly dominates some partition of Y, which for the regions' coordinate
// boxes reduces to minC(X) < maxC(Y) in every dimension (complete
// elimination additionally requires minC(X) < minC(Y) everywhere; both kinds
// produce the same edge, Fig. 6 a–b). A region whose own box satisfies the
// predicate has no self-edge.
//
// The scheduler asks two questions of the graph: the initial in-degrees,
// answered here, and the out-edge targets of one region at release, which
// Progressive.release scans for. Out-edge lists are never stored: with n
// regions the graph can hold Θ(n²) edges, and each is needed exactly once —
// at its source's release.

// inDegrees counts every region's in-edges with the all-pairs predicate.
// The count fans out over targets across workers (0 or 1 = serial); each
// target's count is its own, so the result is the same for any value.
func inDegrees(boxes []Box, workers int) []int32 {
	in := make([]int32, len(boxes))
	par.For(len(boxes), workers, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			dst := boxes[y].Max
			n := int32(0)
			for x, b := range boxes {
				if x != y && grid.StrictlyBelow(b.Min, dst) {
					n++
				}
			}
			in[y] = n
		}
	})
	return in
}
