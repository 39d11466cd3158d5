// Package sched is the region-scheduling layer of the ProgXe engine: it
// owns the EL-Graph of §IV-B, the inverted priority queue of Algorithm 1,
// and the benefit/cost ranking protocol, behind a policy interface so the
// engine is agnostic to how the next region is picked (ProgOrder, arrival,
// random, or future rankers).
//
// The progressive policy keeps the graph incremental: in-degrees come from
// orthant counts over the regions' coordinate-box corners instead of the
// all-pairs O(n²) edge scan, out-edges are enumerated from per-dimension
// grid buckets only at release time (never materialized), and benefit/cost
// ranks refresh lazily at queue-pop — a region dirtied by k edge releases
// between two pops is re-ranked once, not k times. Every decision is a
// deterministic function of the complete/discard call sequence and the
// ranker's values: the heap order is total (rank desc, id asc), release
// enumeration order never reaches an order-sensitive consumer, and rank
// refreshes happen at fixed protocol points — which is what lets the
// engine's differential harness demand byte-identical schedules for any
// worker count.
//
// The engine itself runs Fixed only: ranking every region once and sorting
// reproduces ProgOrder's schedule on the committed inputs, so Progressive
// stays for the scheduler figure (internal/bench) and the benchmark's sched
// cells, which measure it on the engine's region boxes.
package sched

import (
	"fmt"
	"slices"
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
// the goroutine driving Next, so implementations may read engine state
// without synchronization.
type Ranker func(id int) float64

// Counters reports the scheduler's work, for Stats, trace events and the
// service metrics.
type Counters struct {
	Regions        int // regions under management
	Edges          int // EL-Graph edges at construction
	Roots          int // initial roots (in-degree 0)
	RankRefreshes  int // lazy benefit/cost recomputations
	FenwickUpdates int // point updates on the in-degree Fenwick tree
}

// Scheduler picks regions for tuple-level processing. The protocol is:
// Next hands out a live region (at most once each); the engine processes it
// and calls Complete, which releases its elimination edges; Discard
// eliminates a live region without processing. All methods must be called
// from a single goroutine.
type Scheduler interface {
	// Next selects the region for the upcoming tuple-level processing round
	// and its rank at selection time. ok is false when no live region
	// remains.
	Next() (id int, rank float64, ok bool)
	// Complete releases the out-edges of a region previously returned by
	// Next (Algorithm 1, Lines 10–19).
	Complete(id int)
	// Discard eliminates a live region without processing it, releasing its
	// edges. Discarding a non-live region is a no-op.
	Discard(id int)
	// PrefetchOrder ranks all regions by expected scheduling order, for the
	// parallel runner's prefetch workers. A misprediction costs pipeline
	// overlap, never correctness.
	PrefetchOrder() []int32
	// Counters reports the scheduler's work counters.
	Counters() Counters
}

// region lifecycle states.
const (
	stLive int8 = iota
	stProcessed
	stDiscarded
)

// Progressive is ProgOrder (Algorithm 1) over an elGraph: EL-Graph roots
// ranked by Benefit/Cost in an inverted priority queue, with lazy rank
// refresh and graph-cycle breaking by best-ranked live region.
type Progressive struct {
	g      elGraph
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

// NewProgressive returns the incremental-graph ProgOrder scheduler over the
// given region boxes. k lists the output grid's cells per dimension;
// workers bounds the parallelism of the in-degree construction pass (0 or 1
// = serial), which is deterministic for any value.
func NewProgressive(boxes []Box, k []int, ranker Ranker, workers int) *Progressive {
	p := &Progressive{ranker: ranker}
	p.init(boxes, newIncGraph(boxes, k, workers, &p.c.FenwickUpdates))
	return p
}

// NewBatch is NewProgressive over the retained batch O(n²) graph builder —
// the differential oracle and benchmark baseline. Scheduling decisions are
// identical to the incremental scheduler's.
func NewBatch(boxes []Box, k []int, ranker Ranker, workers int) *Progressive {
	p := &Progressive{ranker: ranker}
	p.init(boxes, newBatchGraph(boxes, workers))
	return p
}

func (p *Progressive) init(boxes []Box, g elGraph) {
	n := len(boxes)
	p.g = g
	p.state = make([]int8, n)
	p.rank = make([]float64, n)
	p.ranked = make([]bool, n)
	p.dirty = make([]bool, n)
	p.inDeg = append([]int32(nil), g.inDegrees()...)
	p.q = newIDHeap(p.rank, n)
	p.live = n
	for id := 0; id < n; id++ {
		if p.inDeg[id] == 0 {
			p.q.push(int32(id))
			p.markDirty(int32(id))
		}
	}
	p.c.Regions = n
	p.c.Edges = g.edges()
	p.c.Roots = p.q.len()
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

// Next implements Scheduler: refresh dirty ranks, pop the best root, or —
// when the queue is empty but live regions remain (the EL-Graph may contain
// cycles of mutual partial elimination) — break the cycle by the
// best-ranked live region from the fallback queue.
func (p *Progressive) Next() (int, float64, bool) {
	if p.live == 0 {
		return -1, 0, false
	}
	p.refresh()
	if id := p.q.pop(); id >= 0 {
		p.state[id] = stProcessed
		p.live--
		p.g.retire(id)
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
		p.g.retire(id)
		return int(id), p.rank[id], true
	}
}

// Complete implements Scheduler.
func (p *Progressive) Complete(id int) { p.release(int32(id)) }

// Discard implements Scheduler.
func (p *Progressive) Discard(id int) {
	if p.state[id] != stLive {
		return
	}
	p.state[id] = stDiscarded
	p.live--
	p.q.remove(int32(id))
	p.g.retire(int32(id))
	p.release(int32(id))
}

// release removes the region's out-edges from the graph: queued targets are
// dirty-marked for the next queue-pop refresh, targets whose in-degree
// drains to zero become roots (pushed dirty, ranked before the next pop).
// A promoted root leaves the fallback queue: its rank is about to be
// refreshed through the shared rank slice, and mutating a key under a
// heap's feet would break the fallback's argmax contract.
func (p *Progressive) release(x int32) {
	p.g.release(x, func(y int32) {
		p.inDeg[y]--
		if p.state[y] != stLive {
			return
		}
		if p.q.contains(y) {
			p.markDirty(y)
		} else if p.inDeg[y] == 0 {
			p.q.push(y)
			p.markDirty(y)
			if p.fbBuilt {
				p.fb.remove(y)
			}
		}
	})
}

// PrefetchOrder implements Scheduler: the initial roots by descending rank
// (refreshing them first, exactly the work the first Next would do), then
// the remaining regions by id. (rank, id) is a total order, so the sorted
// prefix is unique — prefetch order stays deterministic.
func (p *Progressive) PrefetchOrder() []int32 {
	p.refresh()
	order := make([]int32, 0, len(p.state))
	order = append(order, p.q.items...)
	slices.SortFunc(order, func(a, b int32) int { // edgeless graphs root everything
		if p.q.before(a, b) {
			return -1
		}
		return 1
	})
	for id := int32(0); int(id) < len(p.state); id++ {
		if p.inDeg[id] != 0 {
			order = append(order, id)
		}
	}
	return order
}

// Counters implements Scheduler.
func (p *Progressive) Counters() Counters { return p.c }

// Fixed processes regions in a predetermined order — the engine's rank
// order, construction order (the arrival ablation) or a seeded shuffle (the
// paper's "No-Order" configuration) — skipping regions discarded along the
// way. Ranks are 0.
type Fixed struct {
	order []int32
	pos   int
	state []int8
	live  int
	c     Counters
}

// NewFixed returns a fixed-order scheduler over n regions. A nil order
// means construction order (arrival).
func NewFixed(n int, order []int) *Fixed {
	f := &Fixed{state: make([]int8, n), live: n, c: Counters{Regions: n}}
	f.order = make([]int32, n)
	for i := range f.order {
		f.order[i] = int32(i)
	}
	for i, id := range order {
		f.order[i] = int32(id)
	}
	return f
}

// Next implements Scheduler.
func (f *Fixed) Next() (int, float64, bool) {
	for f.pos < len(f.order) {
		id := f.order[f.pos]
		f.pos++
		if f.state[id] == stLive {
			f.state[id] = stProcessed
			f.live--
			return int(id), 0, true
		}
	}
	return -1, 0, false
}

// Complete implements Scheduler (fixed orders release nothing).
func (f *Fixed) Complete(int) {}

// Discard implements Scheduler.
func (f *Fixed) Discard(id int) {
	if f.state[id] == stLive {
		f.state[id] = stDiscarded
		f.live--
	}
}

// PrefetchOrder implements Scheduler: the fixed order itself.
func (f *Fixed) PrefetchOrder() []int32 {
	return append([]int32(nil), f.order...)
}

// Counters implements Scheduler.
func (f *Fixed) Counters() Counters { return f.c }
