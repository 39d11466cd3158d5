package core

import (
	"progxe/internal/grid"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// outTuple is a surviving intermediate result held in an output cell's
// buffer until ProgDetermine proves it safe to emit; v is arena-backed.
type outTuple = survivor[pair]

// pair identifies the join result an outTuple maps.
type pair struct{ leftID, rightID int64 }

// cell is the runtime state of one output partition Oh (§V).
//
// The paper maintains per-cell lists Dom(Oh), DomBy(Oh), Dependent(Oh) and
// Dependence(Oh) realized as counters. This implementation collapses them
// into one observation: a finalized, unmarked, populated cell Oh may be
// emitted exactly when no *active* cell (counted and not yet finalized) lies
// in its closed lower orthant. Strictly-below active cells are Dom(Oh)
// entries whose final emptiness is unknown; slice-below active cells are
// Dependent(Oh) entries that may still produce dominators; populated
// strictly-below cells mark Oh outright, and finalized cells impose no
// constraint. Each blocked cell watches a single blocking cell and is
// re-examined when that blocker finalizes — the count-based bookkeeping of
// Algorithm 2 with amortized instead of eager updates.
type cell struct {
	flat      int
	coords    []int
	lower     []float64 // LOWER(Oh), for domination tests
	regCount  int       // RegCount(Oh): unprocessed covering regions
	counted   bool      // participates in blocking (was unmarked at build time)
	marked    bool      // IS_MARKED(Oh): non-contributing, dominated at abstraction level
	populated bool      // ever held a surviving tuple
	finalized bool      // regCount reached zero: no future tuples can map here
	emitted   bool      // survivors already reported
	activeIdx int       // position in space.active, -1 if not active
	pendIdx   int       // position in space.pending, -1 if not pending
	visited   int32     // cellIndex epoch stamp (bucket-union dedup)
	owner     int32     // id of the one region covering the cell, when regCount was 1 at build
	key       uint64    // g.Key(coords), for one-subtraction ≤ tests
	// buf is sorted ascending by (sum, arrival): SFS order with stable ties.
	// Emission reports survivors in this order.
	buf      survivors[pair]
	watchers []*cell // pending cells whose current blocker is this cell
}

// vecArena hands out fixed-length float vectors for surviving tuples from
// chunked backing storage plus a free list of evicted vectors, so steady-
// state tuple processing performs no per-tuple heap allocations. Vectors of
// emitted results are never recycled (sinks may retain them indefinitely).
type vecArena struct {
	d     int
	chunk []float64
	free  [][]float64
}

const arenaChunkVecs = 1024

func (a *vecArena) get() []float64 {
	if n := len(a.free); n > 0 {
		v := a.free[n-1]
		a.free = a.free[:n-1]
		return v
	}
	if len(a.chunk) < a.d {
		a.chunk = make([]float64, arenaChunkVecs*a.d)
	}
	v := a.chunk[:a.d:a.d]
	a.chunk = a.chunk[a.d:]
	return v
}

// space is the mapped output space: the output grid, the covered cells, and
// the bookkeeping that drives progressive result determination.
type space struct {
	d int
	g *grid.Grid
	// cellList is the deterministic iteration order (ascending flat index).
	cellList []*cell
	// idx accelerates flat-id resolution, comparable-slice enumeration and
	// coordinate-box walks (see cellIndex).
	idx cellIndex
	// active lists counted cells that have not yet finalized — the cells
	// that can still block emission (swap-removed as they finalize).
	active []*cell
	// pending lists the cells holding survivors that are neither emitted
	// nor marked — the survivors waiting on a release, which closure picks
	// choose among: a cell joins when it gains its first survivor and
	// leaves (swap removal) when it emits, is marked or loses its last.
	pending []pendingCell
	stats   *smj.Stats
	arena   vecArena
	// pendingFree holds vectors evicted or dropped during the current
	// region's tuple processing. Recycling is deferred until the region
	// completes because runState.roundNew still references round survivors
	// by slice; flushFree moves them to the arena free list.
	pendingFree [][]float64
	// emit delivers one safe result (canonical vector) to the caller.
	emit func(t outTuple)
	// traceEmit, when non-nil, observes each cell emission (cell, count).
	traceEmit func(c *cell, n int)
	// prof receives per-cell emission spans (nil-safe; set by the engine).
	prof *obs.Profiler
}

// cellAt returns the covered cell with the given flat index, or nil.
func (s *space) cellAt(flat int) *cell { return s.idx.dense[flat] }

// dims lists the output grid's per-dimension cell counts.
func (s *space) dims() []int {
	dims := make([]int, s.d)
	for i := range dims {
		dims[i] = s.g.CellsPerDim(i)
	}
	return dims
}

// flushFree recycles the vectors retired during the last region round.
func (s *space) flushFree() {
	s.arena.free = append(s.arena.free, s.pendingFree...)
	s.pendingFree = s.pendingFree[:0]
}

// mark flags a cell as non-contributing and drops any buffered tuples;
// results that map to marked cells are guaranteed dominated (§III-A Ex. 3).
func (s *space) mark(c *cell) {
	if c.marked {
		return
	}
	c.marked = true
	s.dropPending(c)
	for _, t := range c.buf.ts {
		s.pendingFree = append(s.pendingFree, t.v)
	}
	c.buf.ts = nil
	s.stats.CellsMarked++
}

// insert runs the tuple-level dominance protocol of §III-B for one mapped
// join result with output vector v (caller-owned scratch; copied on
// survival). Comparisons are confined to populated cells whose coordinates
// are comparable to the target cell: slice-below cells may contain
// dominators; slice-above cells may contain victims; the strict lower-left
// orthant is empty for any unmarked cell (populating it would have marked
// this cell), and incomparable corners are skipped entirely (Fig. 4). The
// comparable set is enumerated through the per-dimension coordinate buckets
// of the cell index, each candidate cell is pre-filtered in O(d) against
// its survivor summary, and buffer scans stop at the SFS sum cutoff, for
// which the caller passes v's coordinate sum (candidate streams carry it).
// On survival it returns the committed (arena-backed) vector and true.
func (s *space) insert(c *cell, leftID, rightID int64, v []float64, sum float64) ([]float64, bool) {
	if c.marked {
		s.stats.MappedDiscarded++
		return nil, false
	}
	// Phase 1: can any existing survivor dominate the candidate? Dominator
	// cells sit in the flat-id prefix of each bucket (componentwise ≤
	// implies flat ≤); the packed-key test rejects incomparable cells in
	// one comparison before any pointer chase.
	g := s.g
	epoch := s.idx.stamp(c)
	if c.buf.dominator(v, sum, &s.stats.DomComparisons) >= 0 {
		return nil, false
	}
	for i := 0; i < s.d; i++ {
		b := s.idx.buckets[i][c.coords[i]]
		for j := bucketSplit(b, c.flat) - 1; j >= 0; j-- {
			e := &b[j]
			if !g.Leq(e.key, c.key) {
				continue
			}
			p := e.c
			if p.visited == epoch || len(p.buf.ts) == 0 {
				continue
			}
			p.visited = epoch
			if p.buf.dominator(v, sum, &s.stats.DomComparisons) >= 0 {
				return nil, false
			}
		}
	}
	return s.commitSurvivor(c, leftID, rightID, v, sum), true
}

// commitSurvivor runs phase 2 of the protocol for a candidate already known
// to be undominated: evict survivors it dominates (cells in the flat-id
// suffix of each bucket), then commit it to the arena.
func (s *space) commitSurvivor(c *cell, leftID, rightID int64, v []float64, sum float64) []float64 {
	g := s.g
	epoch := s.idx.stamp(c)
	s.evictDominated(c, v, sum)
	for i := 0; i < s.d; i++ {
		b := s.idx.buckets[i][c.coords[i]]
		for j := bucketSplit(b, c.flat+1); j < len(b); j++ {
			e := &b[j]
			if !g.Leq(c.key, e.key) {
				continue
			}
			p := e.c
			if p.visited == epoch || len(p.buf.ts) == 0 || p.emitted {
				continue
			}
			p.visited = epoch
			s.evictDominated(p, v, sum)
		}
	}
	cv := s.arena.get()
	copy(cv, v)
	c.buf.insert(c.buf.firstAbove(sum), outTuple{v: cv, sum: sum, p: pair{leftID, rightID}})
	if !c.populated {
		s.populate(c)
	} else if c.pendIdx < 0 {
		s.addPending(c)
	}
	return cv
}

// evictDominated removes every survivor of p dominated by the candidate
// vector; evicted vectors go to pendingFree (see space).
func (s *space) evictDominated(p *cell, v []float64, sum float64) {
	p.buf.evict(v, sum, &s.stats.DomComparisons, func(t outTuple) {
		s.pendingFree = append(s.pendingFree, t.v)
	})
	if len(p.buf.ts) == 0 {
		s.dropPending(p)
	}
}

// populate records the first surviving tuple in a cell and marks every cell
// strictly above it in all dimensions: any tuple of this cell strictly
// improves on every point of those cells, so they can never contribute
// (§III-B observation 2, maintained dynamically). The strict upper orthant
// is enumerated as a coordinate box over the flat table, in ascending flat
// order.
func (s *space) populate(c *cell) {
	c.populated = true
	s.addPending(c)
	s.idx.addPopulated(c)
	lo := make([]int, 0, 8)
	for _, v := range c.coords {
		lo = append(lo, v+1)
	}
	if grid.BoxVolume(lo, s.idx.maxC) == 0 {
		// No covered cell lies strictly above in every dimension.
		return
	}
	for flat := range s.g.Box(lo, s.idx.maxC) {
		if q := s.idx.dense[flat]; q != nil && !q.marked {
			s.mark(q)
		}
	}
}

// regionDone decrements RegCount for every cell of a processed or discarded
// region — its coordinate box, every cell of which is covered, in ascending
// flat order — finalizing cells
// that can no longer receive tuples: the entry point of ProgDetermine
// (Algorithm 2).
func (s *space) regionDone(r *region) {
	for flat := range s.g.Box(r.minC, r.maxC) {
		c := s.idx.dense[flat]
		c.regCount--
		if c.regCount == 0 && !c.finalized {
			s.finalize(c)
		}
	}
}

// finalize handles a cell whose tuple generation has completed: it leaves
// the active (blocking) set, becomes an emission candidate itself, and wakes
// the pending cells that were watching it (Progressive-Maintenance of
// Algorithm 2, amortized).
func (s *space) finalize(c *cell) {
	c.finalized = true
	s.deactivate(c)
	s.consider(c)
	if len(c.watchers) > 0 {
		watchers := c.watchers
		c.watchers = nil
		for _, w := range watchers {
			s.consider(w)
		}
	}
}

// pendingCell is a pending cell with what a closure pick costs it by, kept
// in the list so that costing touches no cell: its packed key, and its
// cost once costed (see closure.go).
type pendingCell struct {
	c      *cell
	key    uint64
	cost   int64
	costed bool
}

// addPending appends the cell to the pending list.
func (s *space) addPending(c *cell) {
	c.pendIdx = len(s.pending)
	s.pending = append(s.pending, pendingCell{c: c, key: c.key})
}

// dropPending removes the cell from the pending list (swap removal).
func (s *space) dropPending(c *cell) {
	if c.pendIdx < 0 {
		return
	}
	last := len(s.pending) - 1
	moved := s.pending[last]
	s.pending[c.pendIdx] = moved
	moved.c.pendIdx = c.pendIdx
	s.pending = s.pending[:last]
	c.pendIdx = -1
}

// deactivate removes the cell from the active set (swap removal).
func (s *space) deactivate(c *cell) {
	if c.activeIdx < 0 {
		return
	}
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[c.activeIdx] = moved
	moved.activeIdx = c.activeIdx
	s.active = s.active[:last]
	c.activeIdx = -1
}

// consider attempts emission of a candidate cell under Principle 1: the
// cell must be finalized, unmarked and populated, and no active cell may
// remain in its closed lower orthant. If a blocker exists the candidate
// watches it and is reconsidered when the blocker finalizes.
func (s *space) consider(c *cell) {
	if c.emitted || c.marked || !c.finalized || len(c.buf.ts) == 0 {
		return
	}
	if b := s.findBlocker(c); b != nil {
		b.watchers = append(b.watchers, c)
		return
	}
	c.emitted = true
	s.dropPending(c)
	// One span per emitted cell, not per result: two clock reads amortized
	// over the cell's whole buffer keep the emit phase observable without
	// per-tuple overhead.
	tEmit := s.prof.Clock()
	for _, t := range c.buf.ts {
		s.emit(t)
	}
	s.prof.EndSequencer(obs.PhaseEmit, tEmit)
	s.stats.ResultCount += len(c.buf.ts)
	if s.traceEmit != nil {
		s.traceEmit(c, len(c.buf.ts))
	}
}

// findBlocker returns the smallest-flat active cell within the closed lower
// orthant of c (componentwise ≤), or nil if none remains. When the
// coordinate box is small relative to the active set it is enumerated
// directly over the flat table; otherwise the active set is scanned (≈ 2%
// of the calls on the fine_lookahead benchmark workload). Both paths return
// the same cell, keeping the watch graph deterministic.
func (s *space) findBlocker(c *cell) *cell {
	if grid.BoxVolume(s.idx.minC, c.coords) <= 4*len(s.active)+4 {
		return s.firstActiveInLowerBox(c)
	}
	return s.firstActiveBelow(c)
}

// firstActiveInLowerBox walks c's closed lower orthant, clamped to the
// covered box, in ascending flat order and returns its first active cell.
func (s *space) firstActiveInLowerBox(c *cell) *cell {
	for flat := range s.g.Box(s.idx.minC, c.coords) {
		if q := s.idx.dense[flat]; q != nil && q.activeIdx >= 0 {
			return q
		}
	}
	return nil
}

// firstActiveBelow scans the active set for the smallest-flat cell
// componentwise ≤ c.
func (s *space) firstActiveBelow(c *cell) *cell {
	var best *cell
	for _, q := range s.active {
		if s.g.Leq(q.key, c.key) && (best == nil || q.flat < best.flat) {
			best = q
		}
	}
	return best
}

// unemitted returns cells that hold survivors but were never emitted; after
// all regions are done this must be empty (completeness invariant).
func (s *space) unemitted() []*cell {
	var out []*cell
	for _, c := range s.cellList {
		if !c.emitted && !c.marked && len(c.buf.ts) > 0 {
			out = append(out, c)
		}
	}
	return out
}
