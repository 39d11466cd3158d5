package sched

import (
	"progxe/internal/grid"
	"progxe/internal/par"
)

// The EL-Graph of §IV-B has an edge X → Y iff some output partition of X
// strictly dominates some partition of Y, which for the regions' coordinate
// boxes reduces to minC(X) < maxC(Y) in every dimension (complete
// elimination additionally requires minC(X) < minC(Y) everywhere; both kinds
// produce the same edge, Fig. 6 a–b). The scheduler only ever asks two
// questions of the graph: the initial in-degrees (roots and edge totals),
// and the out-edge targets of one region at release time. elGraph abstracts
// those so the incremental coordinate-box index and the batch O(n²) builder
// are interchangeable — the batch builder is retained as the differential
// oracle and the benchmark baseline.
//
// release may enumerate targets in any order: the consumers (in-degree
// decrement, dirty marking, root enqueueing into a totally ordered heap)
// are order-insensitive, so only the target set must be deterministic up to
// dead regions — retire tells the graph a region left the live set, after
// which release may (but need not) skip it: a dead region's in-degree is
// never consulted again, so dropping its decrements cannot change any
// scheduling decision.
type elGraph interface {
	inDegrees() []int32
	edges() int
	retire(x int32)
	release(x int32, fn func(y int32))
}

// fenLimit caps the cell count of the Fenwick tree used for in-degree
// construction; larger grids fall back to the bucket-scan path. A variable
// (not const) so the differential tests can force the fallback on small
// grids.
var fenLimit = grid.BoxIndexFenLimit

// incGraph answers the edge queries through the shared output-space box
// index (grid.BoxIndex) instead of materialized adjacency. The §IV-B edge
// predicate minC(X) < maxC(Y) everywhere becomes the index's closed corner
// relation by the +1 shift: src = minC+1, dst = maxC, and X → Y iff
// src(X) ≤ dst(Y) componentwise. In-degrees are the index's bulk orthant
// counts (Fenwick under fenLimit, bucket-scan beyond), release(X) is the
// index's live-successor enumeration over per-dimension maxC buckets with
// packed-key filtering, and retire maps directly.
//
// Out-edge lists are never stored: with n regions the graph can hold Θ(n²)
// edges, and each is needed exactly once — at its source's release.
type incGraph struct {
	ix     *grid.BoxIndex
	inDeg  []int32
	nedges int
}

func newIncGraph(boxes []Box, k []int, workers int, fenwickUpdates *int) *incGraph {
	d := len(k)
	src := make([][]int, len(boxes))
	dst := make([][]int, len(boxes))
	flat := make([]int, len(boxes)*d) // one backing block for the shifted corners
	for id, b := range boxes {
		s := flat[:d:d]
		flat = flat[d:]
		for i, v := range b.Min {
			s[i] = v + 1
		}
		src[id] = s
		dst[id] = b.Max
	}
	g := &incGraph{ix: grid.NewBoxIndex(src, dst, k, fenLimit)}
	g.inDeg = g.ix.InDegrees(workers)
	for y, b := range boxes {
		if grid.StrictlyBelow(b.Min, b.Max) {
			g.inDeg[y]-- // the region itself satisfies the predicate
		}
	}
	if fenwickUpdates != nil {
		*fenwickUpdates += g.ix.FenwickUpdates()
	}
	for _, n := range g.inDeg {
		g.nedges += int(n)
	}
	return g
}

func (g *incGraph) inDegrees() []int32 { return g.inDeg }
func (g *incGraph) edges() int         { return g.nedges }

// retire removes a dead region from the index's successor side, so later
// releases neither scan nor enumerate it. On dense graphs this halves
// release work on average — and far more when discard cascades kill regions
// early.
func (g *incGraph) retire(x int32) { g.ix.Retire(x) }

// release enumerates the live out-edge targets of x: regions whose maxC is
// componentwise ≥ minC(x)+1 (x itself was retired before its release, so
// the index never hands it back).
func (g *incGraph) release(x int32, fn func(y int32)) { g.ix.EachOut(x, fn) }

// batchGraph is the seed's O(n²) builder: the all-pairs edge scan with
// materialized adjacency, exactly as buildELGraph ran it inside the engine.
// Retained as the differential oracle for the incremental index and as the
// baseline the scheduler benchmark measures against.
type batchGraph struct {
	out    [][]int32
	inDeg  []int32
	nedges int
}

func newBatchGraph(boxes []Box, workers int) *batchGraph {
	g := &batchGraph{
		out:   make([][]int32, len(boxes)),
		inDeg: make([]int32, len(boxes)),
	}
	// Two passes per source: count the out-degree first so each edge slice
	// is allocated exactly once (dense graphs otherwise churn the
	// allocator). Each source's adjacency is independent, so the scan fans
	// out across workers with in-degrees accumulated serially afterwards.
	par.For(len(boxes), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := boxes[i]
			count := 0
			for j, y := range boxes {
				if i != j && grid.StrictlyBelow(x.Min, y.Max) {
					count++
				}
			}
			if count == 0 {
				continue
			}
			out := make([]int32, 0, count)
			for j, y := range boxes {
				if i != j && grid.StrictlyBelow(x.Min, y.Max) {
					out = append(out, int32(j))
				}
			}
			g.out[i] = out
		}
	})
	for _, out := range g.out {
		g.nedges += len(out)
		for _, y := range out {
			g.inDeg[y]++
		}
	}
	return g
}

func (g *batchGraph) inDegrees() []int32 { return g.inDeg }
func (g *batchGraph) edges() int         { return g.nedges }

// retire is a no-op: the batch builder replays the seed's behavior, walking
// every stored out-edge at release regardless of target liveness.
func (g *batchGraph) retire(int32) {}

func (g *batchGraph) release(x int32, fn func(y int32)) {
	for _, y := range g.out[x] {
		fn(y)
	}
	g.out[x] = nil
}
