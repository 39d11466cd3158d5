package sched

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// randBoxes generates a random region set over a random grid shape.
func randBoxes(rng *rand.Rand, n, d, kMax int) ([]Box, []int) {
	k := make([]int, d)
	for i := range k {
		k[i] = 2 + rng.IntN(kMax-1)
	}
	boxes := make([]Box, n)
	for b := range boxes {
		mn := make([]int, d)
		mx := make([]int, d)
		for i := range mn {
			lo := rng.IntN(k[i])
			hi := lo + rng.IntN(k[i]-lo)
			mn[i], mx[i] = lo, hi
		}
		boxes[b] = Box{Min: mn, Max: mx}
	}
	return boxes, k
}

// collectEdges enumerates a graph's full edge set as sorted (x, y) pairs.
// Release enumeration order is deliberately unspecified, so comparisons
// sort first. Self-pairs are filtered: the scheduler retires a region from
// the index before releasing it, so production releases never see the
// source itself — here every region is still live.
func collectEdges(g elGraph, n int) [][2]int32 {
	var edges [][2]int32
	for x := int32(0); int(x) < n; x++ {
		g.release(x, func(y int32) {
			if y != x {
				edges = append(edges, [2]int32{x, y})
			}
		})
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return edges
}

// checkGraphEquivalence asserts the incremental index and the batch builder
// agree on in-degrees, edge totals and the complete edge set.
func checkGraphEquivalence(t *testing.T, boxes []Box, k []int, workers int) {
	t.Helper()
	var fen int
	inc := newIncGraph(boxes, k, workers, &fen)
	batch := newBatchGraph(boxes, workers)
	if !slices.Equal(inc.inDegrees(), batch.inDegrees()) {
		t.Fatalf("in-degrees diverge:\nincremental %v\nbatch       %v", inc.inDegrees(), batch.inDegrees())
	}
	if inc.edges() != batch.edges() {
		t.Fatalf("edge totals diverge: incremental %d, batch %d", inc.edges(), batch.edges())
	}
	incEdges := collectEdges(inc, len(boxes))
	batchEdges := collectEdges(newBatchGraph(boxes, workers), len(boxes))
	if !slices.Equal(incEdges, batchEdges) {
		t.Fatalf("edge sets diverge: incremental %d edges, batch %d", len(incEdges), len(batchEdges))
	}
}

// discard eliminates a live region without popping it (Algorithm 1, Line 9):
// it leaves the queues and releases its edges. The differential drive
// discards at random so the two graphs are compared on releases of
// never-popped regions too; those draws also fix the next trial's shape,
// and with it the subtest names.
func discard(p *Progressive, id int) {
	if p.state[id] != stLive {
		return
	}
	p.state[id] = stProcessed
	p.live--
	p.q.remove(int32(id))
	p.g.retire(int32(id))
	p.release(int32(id))
}

// driveEquivalence replays one randomized complete/discard sequence through
// the incremental scheduler and the batch oracle, demanding identical pop
// order, pop-time ranks, discard outcomes and counters. The ranker is a
// pure function of (region, pops so far), so both sides see identical
// values iff their refresh sets coincide at every protocol point.
func driveEquivalence(t *testing.T, rng *rand.Rand, boxes []Box, k []int, workers int) {
	t.Helper()
	pops := 0
	ranker := func(id int) float64 {
		x := uint64(id)*0x9e3779b97f4a7c15 + uint64(pops)*0xbf58476d1ce4e5b9
		x ^= x >> 29
		x *= 0x94d049bb133111eb
		// Coarse buckets force rank ties, exercising id tie-breaking.
		return float64(x % 16)
	}
	inc := NewProgressive(boxes, k, ranker, workers)
	batch := NewBatch(boxes, k, ranker, workers)

	alive := make([]bool, len(boxes))
	for i := range alive {
		alive[i] = true
	}
	var order []int
	for {
		ia, ra, oka := inc.Next()
		ib, rb, okb := batch.Next()
		if oka != okb || ia != ib || ra != rb {
			t.Fatalf("pop %d diverges: incremental (%d, %g, %v), batch (%d, %g, %v)",
				pops, ia, ra, oka, ib, rb, okb)
		}
		if !oka {
			break
		}
		pops++
		if !alive[ia] {
			t.Fatalf("pop %d returned dead region %d", pops, ia)
		}
		alive[ia] = false
		order = append(order, ia)
		// Discard a random batch of live regions mid-round, as tuple-level
		// domination would (Algorithm 1, Line 9).
		for tries := rng.IntN(3); tries > 0; tries-- {
			id := rng.IntN(len(boxes))
			if alive[id] {
				alive[id] = false
				discard(inc, id)
				discard(batch, id)
			}
		}
		inc.Complete(ia)
		batch.Complete(ia)
	}
	if len(order) == 0 && len(boxes) > 0 {
		t.Fatal("nothing scheduled")
	}
	ci, cb := inc.Counters(), batch.Counters()
	ci.FenwickUpdates, cb.FenwickUpdates = 0, 0 // batch builds no tree
	if ci != cb {
		t.Fatalf("counters diverge: incremental %+v, batch %+v", ci, cb)
	}
}

// TestSchedulerEquivalence is the differential property test: randomized
// region sets and discard/complete sequences through the incremental
// scheduler vs the retained batch O(n²) builder, across the index's
// operating modes — packed keys with the Fenwick in-degree pass (the
// default), unpacked keys (a dimension wider than 128 cells), and the
// bucket-scan fallback for grids above the Fenwick cap.
func TestSchedulerEquivalence(t *testing.T) {
	modes := []struct {
		name     string
		d, kMax  int
		fenLimit int
	}{
		{"packed/fenwick", 3, 16, 1 << 21},
		{"packed/d=5", 5, 8, 1 << 21},
		{"unpacked/k=200", 2, 200, 1 << 21},
		{"unpacked/d=9", 9, 4, 1 << 21},
		{"fenwick-fallback", 3, 16, 8},
		{"unpacked+fallback", 2, 200, 8},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			defer func(old int) { fenLimit = old }(fenLimit)
			fenLimit = m.fenLimit
			rng := rand.New(rand.NewPCG(uint64(m.d)*77+uint64(m.kMax), 99))
			for trial := 0; trial < 25; trial++ {
				n := 1 + rng.IntN(120)
				workers := rng.IntN(3) * 2 // 0, 2, 4 — construction must not depend on it
				boxes, k := randBoxes(rng, n, m.d, m.kMax)
				label := fmt.Sprintf("trial %d (n=%d d=%d k=%v workers=%d)", trial, n, m.d, k, workers)
				t.Run(label, func(t *testing.T) {
					checkGraphEquivalence(t, boxes, k, workers)
					driveEquivalence(t, rng, boxes, k, workers)
				})
			}
		})
	}
}

// edges builds the EL-Graph over the boxes on a k×k grid and reports its
// edge and root counts.
func edges(k int, boxes ...Box) (int, int) {
	c := NewProgressive(boxes, []int{k, k}, func(int) float64 { return 0 }, 0).Counters()
	return c.Edges, c.Roots
}

// TestEliminatesPredicates pins the §IV-B edge predicate, minC(X) < maxC(Y)
// in every dimension: overlapping boxes eliminate each other, and an equal
// coordinate in one dimension is not strict.
func TestEliminatesPredicates(t *testing.T) {
	a := Box{Min: []int{0, 0}, Max: []int{2, 2}}
	b := Box{Min: []int{1, 1}, Max: []int{3, 3}}
	if e, r := edges(5, a, b); e != 2 || r != 0 {
		t.Fatalf("overlapping boxes: %d edges, %d roots; want a mutual pair", e, r)
	}
	c := Box{Min: []int{2, 0}, Max: []int{4, 2}}
	if e, r := edges(5, a, c); e != 1 || r != 1 {
		t.Fatalf("a, c: %d edges, %d roots; want only a → c", e, r)
	}
}

// TestELGraphEdges checks the §IV-B edge rule on an asymmetric overlap: the
// lower region eliminates part of the upper one but not vice versa, so only
// the lower is a root (Fig. 7's shaded-root structure in miniature). The
// boxes are the output cells, on a 9×9 grid over [0, 4.5]×[0, 2.5], of the
// rectangles a = [(0,0),(2.4,2.5)] and b = [(2,0),(4.5,2.5)]: a ends inside
// x-cell 4 = [2, 2.5), where b begins. (An a reaching x = 2.5 exactly would
// own a point of cell 5, which b's cell-4 tuples can eliminate: a mutual
// edge.)
func TestELGraphEdges(t *testing.T) {
	a := Box{Min: []int{0, 0}, Max: []int{4, 8}}
	b := Box{Min: []int{4, 0}, Max: []int{8, 8}}
	if e, r := edges(9, a, b); e != 1 || r != 1 {
		t.Fatalf("EL-graph edges=%d roots=%d, want 1/1", e, r)
	}
	p := NewProgressive([]Box{a, b}, []int{9, 9}, func(int) float64 { return 0 }, 0)
	if id, _, ok := p.Next(); !ok || id != 0 {
		t.Fatalf("first pick = %d, want the root a", id)
	}
}

// TestIDHeap exercises the hand-rolled heap: rank ordering with id
// tie-breaks, in-place fixes, and removal.
func TestIDHeap(t *testing.T) {
	rank := make([]float64, 64)
	q := newIDHeap(rank, 64)
	rng := rand.New(rand.NewPCG(5, 6))
	in := map[int32]bool{}
	for step := 0; step < 1000; step++ {
		switch rng.IntN(4) {
		case 0, 1:
			id := int32(rng.IntN(64))
			if !in[id] {
				rank[id] = float64(rng.IntN(8))
				q.push(id)
				in[id] = true
			}
		case 2:
			id := int32(rng.IntN(64))
			if in[id] {
				rank[id] = float64(rng.IntN(8))
				q.fix(id)
			}
		case 3:
			id := int32(rng.IntN(64))
			if rng.IntN(2) == 0 {
				q.remove(id) // may or may not be present
				delete(in, id)
			} else if len(q.items) > 0 {
				top := q.pop()
				for other := range in {
					if other != top && q.before(other, top) {
						t.Fatalf("pop returned %d (rank %g) but %d (rank %g) precedes it",
							top, rank[top], other, rank[other])
					}
				}
				delete(in, top)
			}
		}
		// Structural invariants: positions consistent, heap property holds.
		for i, id := range q.items {
			if q.pos[id] != int32(i) {
				t.Fatalf("pos[%d] = %d, want %d", id, q.pos[id], i)
			}
			if i > 0 && q.before(id, q.items[(i-1)/2]) {
				t.Fatalf("heap property violated at %d", i)
			}
		}
	}
	for q.pop() >= 0 {
	}
	if q.len() != 0 {
		t.Fatal("drained heap not empty")
	}
}
