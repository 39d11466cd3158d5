package sched

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/grid"
	"progxe/internal/par"
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

// discard eliminates a live region without popping it (Algorithm 1, Line 9):
// it leaves the queues and releases its edges.
func discard(p *Progressive, id int) {
	if p.state[id] != stLive {
		return
	}
	p.state[id] = stProcessed
	p.live--
	p.q.remove(int32(id))
	p.release(int32(id))
}

// bruteForcePick is ProgOrder's choice from first principles: the best
// (rank desc, id asc) live region with no live in-edge, or — when every live
// region has one (a cycle) — the best live region. -1 when none is live.
func bruteForcePick(boxes []Box, alive []bool, rank func(int) float64) int {
	better := func(a, b int) bool {
		return b < 0 || rank(a) > rank(b) || rank(a) == rank(b) && a < b
	}
	root, best := -1, -1
	for y := range boxes {
		if !alive[y] {
			continue
		}
		if better(y, best) {
			best = y
		}
		isRoot := true
		for x := range boxes {
			if x != y && alive[x] && grid.StrictlyBelow(boxes[x].Min, boxes[y].Max) {
				isRoot = false
				break
			}
		}
		if isRoot && better(y, root) {
			root = y
		}
	}
	if root >= 0 {
		return root
	}
	return best
}

// TestScheduleMatchesBruteForce is the scheduler's property test: random
// region sets and random complete/discard sequences, with every Next checked
// against bruteForcePick. The ranker depends on the id only, so a lazy
// refresh never changes a rank and the brute-force pick is well defined.
func TestScheduleMatchesBruteForce(t *testing.T) {
	shapes := []struct{ d, kMax int }{{1, 12}, {2, 8}, {3, 16}, {5, 8}, {2, 200}, {9, 4}}
	rank := func(id int) float64 {
		x := uint64(id) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		return float64(x % 16) // coarse buckets force id tie-breaks
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("d=%d/k<%d", sh.d, sh.kMax+1), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(sh.d)*77+uint64(sh.kMax), 99))
			for trial := 0; trial < 25; trial++ {
				boxes, k := randBoxes(rng, 1+rng.IntN(120), sh.d, sh.kMax)
				p := NewProgressive(boxes, k, rank, 0)
				alive := make([]bool, len(boxes))
				for i := range alive {
					alive[i] = true
				}
				for pops := 0; ; pops++ {
					want := bruteForcePick(boxes, alive, rank)
					id, r, ok := p.Next()
					if !ok {
						if want >= 0 {
							t.Fatalf("trial %d pop %d: scheduler done, brute force picks %d", trial, pops, want)
						}
						break
					}
					if id != want || r != rank(id) {
						t.Fatalf("trial %d pop %d: picked %d (rank %g), brute force %d (rank %g)", trial, pops, id, r, want, rank(want))
					}
					alive[id] = false
					// Discard a few live regions mid-round, as tuple-level
					// domination would (Algorithm 1, Line 9).
					for tries := rng.IntN(3); tries > 0; tries-- {
						if d := rng.IntN(len(boxes)); alive[d] {
							alive[d] = false
							discard(p, d)
						}
					}
					p.Complete(id)
				}
			}
		})
	}
}

// refSched is ProgOrder written out plainly, the reference of
// TestSchedulerEquivalence: the EL-Graph as adjacency lists built from the
// all-pairs predicate, every pick a linear argmax over (rank desc, id asc),
// and Progressive's refresh protocol — a queued region dirtied by releases is
// re-ranked once at the next Next, and the first cycle break ranks every
// live region once and then picks by those frozen ranks.
type refSched struct {
	ranker                       Ranker
	out                          [][]int
	inDeg                        []int
	rank                         []float64
	alive, queued, dirty, ranked []bool
	fbBuilt                      bool
	c                            Counters
}

func newRefSched(boxes []Box, ranker Ranker) *refSched {
	n := len(boxes)
	r := &refSched{
		ranker: ranker, out: make([][]int, n), inDeg: make([]int, n), rank: make([]float64, n),
		alive: make([]bool, n), queued: make([]bool, n), dirty: make([]bool, n), ranked: make([]bool, n),
	}
	for x := range boxes {
		for y := range boxes {
			if x != y && grid.StrictlyBelow(boxes[x].Min, boxes[y].Max) {
				r.out[x] = append(r.out[x], y)
				r.inDeg[y]++
				r.c.Edges++
			}
		}
	}
	for y := range boxes {
		r.alive[y] = true
		if r.inDeg[y] == 0 {
			r.queued[y], r.dirty[y] = true, true
			r.c.Roots++
		}
	}
	r.c.Regions = n
	return r
}

// best is the (rank desc, id asc) argmax over the live regions whose queued
// flag equals queued, or -1.
func (r *refSched) best(queued bool) int {
	pick := -1
	for y := range r.alive {
		if r.alive[y] && r.queued[y] == queued &&
			(pick < 0 || r.rank[y] > r.rank[pick]) {
			pick = y
		}
	}
	return pick
}

func (r *refSched) Next() (int, float64, bool) {
	for y := range r.dirty {
		if r.dirty[y] && r.alive[y] && r.queued[y] {
			r.rank[y] = r.ranker(y)
			r.ranked[y] = true
			r.c.RankRefreshes++
		}
		r.dirty[y] = false
	}
	id := r.best(true)
	if id < 0 {
		if !r.fbBuilt {
			r.fbBuilt = true
			for y := range r.alive {
				if r.alive[y] && !r.ranked[y] {
					r.rank[y] = r.ranker(y)
					r.ranked[y] = true
					r.c.RankRefreshes++
				}
			}
		}
		if id = r.best(false); id < 0 {
			return -1, 0, false
		}
	}
	r.alive[id], r.queued[id] = false, false
	return id, r.rank[id], true
}

// release is Complete, and the second half of a discard.
func (r *refSched) release(x int) {
	for _, y := range r.out[x] {
		if !r.alive[y] {
			continue
		}
		r.inDeg[y]--
		if r.queued[y] {
			r.dirty[y] = true
		} else if r.inDeg[y] == 0 {
			r.queued[y], r.dirty[y] = true, true
		}
	}
}

func (r *refSched) discard(id int) {
	if r.alive[id] {
		r.alive[id], r.queued[id] = false, false
		r.release(id)
	}
}

// TestSchedulerEquivalence is the differential test of the scheduler's
// protocol: random region sets and complete/discard sequences through
// Progressive and refSched, with a ranker that depends on the pops so far
// (so a missed or extra lazy refresh changes a rank), demanding the same
// in-degrees, pop order, pop-time ranks and counters. The mode names are
// those of the incremental box index the scheduler used before its graph
// became the all-pairs predicate; each now stands for its grid shape, and
// the two fallback modes, which differed from their shape's first mode only
// in that index's Fenwick cap, replay the same trials.
func TestSchedulerEquivalence(t *testing.T) {
	modes := []struct {
		name    string
		d, kMax int
	}{
		{"packed/fenwick", 3, 16},
		{"packed/d=5", 5, 8},
		{"unpacked/k=200", 2, 200},
		{"unpacked/d=9", 9, 4},
		{"fenwick-fallback", 3, 16},
		{"unpacked+fallback", 2, 200},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(m.d)*77+uint64(m.kMax), 99))
			for trial := 0; trial < 25; trial++ {
				n := 1 + rng.IntN(120)
				workers := rng.IntN(3) * 2 // 0, 2, 4 — construction must not depend on it
				boxes, k := randBoxes(rng, n, m.d, m.kMax)
				label := fmt.Sprintf("trial %d (n=%d d=%d k=%v workers=%d)", trial, n, m.d, k, workers)
				t.Run(label, func(t *testing.T) {
					driveEquivalence(t, rng, boxes, k, workers)
				})
			}
		})
	}
}

// driveEquivalence replays one random complete/discard sequence through
// Progressive and refSched. Its random draws also fix the next trial's
// shape, and with it the subtest names.
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
	p := NewProgressive(boxes, k, ranker, workers)
	ref := newRefSched(boxes, ranker)
	for y, d := range p.inDeg {
		if int(d) != ref.inDeg[y] {
			t.Fatalf("in-degree of %d: %d, reference %d", y, d, ref.inDeg[y])
		}
	}
	for {
		ia, ra, oka := p.Next()
		ib, rb, okb := ref.Next()
		if oka != okb || ia != ib || ra != rb {
			t.Fatalf("pop %d diverges: scheduler (%d, %g, %v), reference (%d, %g, %v)",
				pops, ia, ra, oka, ib, rb, okb)
		}
		if !oka {
			break
		}
		pops++
		// Discard a random batch of live regions mid-round, as tuple-level
		// domination would (Algorithm 1, Line 9).
		for tries := rng.IntN(3); tries > 0; tries-- {
			if id := rng.IntN(len(boxes)); ref.alive[id] {
				discard(p, id)
				ref.discard(id)
			}
		}
		p.Complete(ia)
		ref.release(ia)
	}
	if pops == 0 && len(boxes) > 0 {
		t.Fatal("nothing scheduled")
	}
	if c, rc := p.Counters(), ref.c; c != rc {
		t.Fatalf("counters diverge: scheduler %+v, reference %+v", c, rc)
	}
}

// TestInDegreesIndependentOfWorkers checks the parallel all-pairs count on a
// region set large enough to fan out: every worker count gives the serial
// in-degrees.
func TestInDegreesIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	boxes, _ := randBoxes(rng, 3*par.Min, 3, 12)
	want := inDegrees(boxes, 0)
	for _, w := range []int{2, 3, 8} {
		if got := inDegrees(boxes, w); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: in-degrees differ from serial", w)
		}
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
