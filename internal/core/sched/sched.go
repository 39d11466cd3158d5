// Package sched is the EL-Graph scheduler of §IV-B: ProgOrder (Algorithm 1)
// with an inverted priority queue and lazy benefit/cost rank refresh. The
// engine no longer runs it — it ranks every region once and runs the sorted
// order — so the package exists only for the benchmark's sched.* cells,
// which drive Progressive over the engine's region boxes (core.PlanBoxes),
// and goes with them.
//
// The graph is the §IV-B edge predicate itself, with no stored adjacency:
// in-degrees come from one all-pairs count at construction, and a release
// finds its targets by scanning the boxes in ascending id. Ranks refresh
// lazily at queue-pop — a region dirtied by k edge releases between two pops
// is re-ranked once, not k times. Every decision is a deterministic function
// of the complete call sequence and the ranker's values: the heap order is
// total (rank desc, id asc), and rank refreshes happen at fixed protocol
// points.
package sched

import (
	"fmt"

	"progxe/internal/grid"
)

// Box is one region's inclusive coordinate box on the output grid: the
// componentwise minimum and maximum cell coordinates of the cells it covers
// (minC/maxC in the paper's §IV-B edge rule).
type Box struct {
	Min, Max []int
}

// Ranker computes the current Benefit/Cost rank of a region (Equation 8).
// The scheduler calls it lazily — when a dirty region reaches a queue-pop,
// and at most once per region for the cycle-breaking fallback — always from
// the goroutine driving Next.
type Ranker func(id int) float64

// Counters reports the scheduler's work.
type Counters struct {
	Regions       int // regions under management
	Edges         int // EL-Graph edges at construction
	Roots         int // initial roots (in-degree 0)
	RankRefreshes int // lazy benefit/cost recomputations
}

// region lifecycle states.
const (
	stLive int8 = iota
	stProcessed
)

// Progressive is ProgOrder (Algorithm 1): EL-Graph roots ranked by
// Benefit/Cost in an inverted priority queue, with lazy rank refresh and
// graph-cycle breaking by best-ranked live region.
type Progressive struct {
	boxes  []Box
	ranker Ranker

	state  []int8
	rank   []float64
	ranked []bool // rank ever computed (cycle-break fallback analyses once)
	inDeg  []int32

	q        idHeap
	dirty    []bool  // queued with a stale rank
	dirtyIDs []int32 // pending refreshes, deduplicated via dirty

	// fb is the cycle-break queue, built lazily the first time the root
	// queue drains with live regions left (mutual partial elimination can
	// make the EL-Graph fully cyclic — the norm on anti-correlated data).
	// Fallback candidates are live never-queued regions, whose ranks are
	// computed once and then frozen (a region's rank only refreshes while
	// queued, and queued regions never return to the fallback), so a heap
	// pops exactly the region a per-pop argmax scan would pick — without
	// the scan's O(n²) worst case over a run.
	fb      idHeap
	fbBuilt bool

	live int
	c    Counters
}

// NewProgressive returns the ProgOrder scheduler over the given region
// boxes. k lists the output grid's cells per dimension (the all-pairs graph
// does not read it); workers bounds the parallelism of the in-degree count
// (0 or 1 = serial), whose result is the same for any value.
func NewProgressive(boxes []Box, k []int, ranker Ranker, workers int) *Progressive {
	n := len(boxes)
	p := &Progressive{
		boxes:  boxes,
		ranker: ranker,
		state:  make([]int8, n),
		rank:   make([]float64, n),
		ranked: make([]bool, n),
		dirty:  make([]bool, n),
		inDeg:  inDegrees(boxes, workers),
		live:   n,
	}
	p.q = newIDHeap(p.rank, n)
	for id, d := range p.inDeg {
		p.c.Edges += int(d)
		if d == 0 {
			p.q.push(int32(id))
			p.markDirty(int32(id))
		}
	}
	p.c.Regions = n
	p.c.Roots = p.q.len()
	return p
}

func (p *Progressive) markDirty(id int32) {
	if !p.dirty[id] {
		p.dirty[id] = true
		p.dirtyIDs = append(p.dirtyIDs, id)
	}
}

// refresh recomputes the rank of every dirty queued region. Refresh order
// is irrelevant (the ranker is a pure function of engine state at this
// protocol point), so the deduplicated set — not the marking order —
// determines the outcome.
func (p *Progressive) refresh() {
	for _, id := range p.dirtyIDs {
		p.dirty[id] = false
		if p.state[id] != stLive || !p.q.contains(id) {
			continue
		}
		p.rank[id] = p.ranker(int(id))
		p.ranked[id] = true
		p.c.RankRefreshes++
		p.q.fix(id)
	}
	p.dirtyIDs = p.dirtyIDs[:0]
}

// Next selects the region for the upcoming round and its rank at selection
// time, or ok = false when no live region remains: refresh dirty ranks, pop
// the best root, or — when the queue is empty but live regions remain (the
// EL-Graph may contain cycles of mutual partial elimination) — break the
// cycle by the best-ranked live region from the fallback queue.
func (p *Progressive) Next() (int, float64, bool) {
	if p.live == 0 {
		return -1, 0, false
	}
	p.refresh()
	if id := p.q.pop(); id >= 0 {
		p.state[id] = stProcessed
		p.live--
		return int(id), p.rank[id], true
	}
	if !p.fbBuilt {
		// First cycle break: rank every live region once (ascending id)
		// and queue them all — the root queue being empty, none is queued.
		p.fbBuilt = true
		p.fb = newIDHeap(p.rank, len(p.state))
		for id := int32(0); int(id) < len(p.state); id++ {
			if p.state[id] != stLive {
				continue
			}
			if !p.ranked[id] {
				p.rank[id] = p.ranker(int(id))
				p.ranked[id] = true
				p.c.RankRefreshes++
			}
			p.fb.push(id)
		}
	}
	for {
		id := p.fb.pop()
		// A live region is either root-queued (impossible here: the root
		// queue is empty) or still in the fallback queue, so the pop can
		// only run dry when live == 0 — excluded above. Guarded anyway: a
		// future membership bug should fail loudly, not as index -1.
		if id < 0 {
			panic(fmt.Sprintf("sched: no region to schedule with %d live regions", p.live))
		}
		if p.state[id] != stLive || p.q.contains(id) {
			continue
		}
		p.state[id] = stProcessed
		p.live--
		return int(id), p.rank[id], true
	}
}

// Complete releases the out-edges of a region Next returned (Algorithm 1,
// Lines 10–19).
func (p *Progressive) Complete(id int) { p.release(int32(id)) }

// release removes the region's out-edges from the graph, scanning the boxes
// in ascending id for live targets (x itself is no longer live, and a dead
// region's in-degree is never consulted again): queued targets are
// dirty-marked for the next queue-pop refresh, targets whose in-degree
// drains to zero become roots (pushed dirty, ranked before the next pop).
// A promoted root leaves the fallback queue: its rank is about to be
// refreshed through the shared rank slice, and mutating a key under a
// heap's feet would break the fallback's argmax contract.
func (p *Progressive) release(x int32) {
	src := p.boxes[x].Min
	for i, b := range p.boxes {
		y := int32(i)
		if p.state[y] != stLive || !grid.StrictlyBelow(src, b.Max) {
			continue
		}
		p.inDeg[y]--
		if p.q.contains(y) {
			p.markDirty(y)
		} else if p.inDeg[y] == 0 {
			p.q.push(y)
			p.markDirty(y)
			if p.fbBuilt {
				p.fb.remove(y)
			}
		}
	}
}

// Counters reports the scheduler's work counters.
func (p *Progressive) Counters() Counters { return p.c }
