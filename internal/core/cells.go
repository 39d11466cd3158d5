package core

import (
	"progxe/internal/grid"
	"progxe/internal/obs"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// outTuple is a surviving intermediate result held in an output cell's
// buffer until ProgDetermine proves it safe to emit. sum caches the
// coordinate sum of v; buffers are kept sorted ascending by it (SFS order),
// so dominance scans are cut off by sum. A dominator's float sum is ≤ its
// victim's — float addition is monotone, but sums that differ only below the
// rounding step tie — so every cutoff is tie-inclusive: dominators end at the
// first entry whose sum is larger, victims start at the first whose sum is
// not smaller.
type outTuple struct {
	leftID  int64
	rightID int64
	v       []float64 // canonical (minimized) output vector, arena-backed
	sum     float64
}

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
	visited   int32     // cellIndex epoch stamp (bucket-union dedup)
	owner     int32     // id of the one region covering the cell, when regCount was 1 at build
	key       uint64    // g.Key(coords), for one-subtraction ≤ tests
	// minV/maxV are the componentwise min/max over the current survivors —
	// the survivor summary. A cell can hold a dominator of t only if
	// minV ≤ t everywhere, and a victim of t only if maxV ≥ t everywhere,
	// so whole cells refute in O(d) before any tuple is touched. Valid only
	// while len(tuples) > 0; maintained exactly on insert and eviction.
	minV []float64
	maxV []float64
	// tuples is sorted ascending by (sum, arrival): SFS order with stable
	// ties. Emission reports survivors in this order.
	tuples   []outTuple
	watchers []*cell // pending cells whose current blocker is this cell
}

// firstNotBelow returns the index of the first buffered tuple whose sum is
// ≥ s — the start of the victim range for an eviction scan (everything
// before it cannot be dominated by a tuple of sum s).
func (c *cell) firstNotBelow(s float64) int {
	lo, hi := 0, len(c.tuples)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.tuples[mid].sum < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstAbove returns the index of the first buffered tuple whose sum is > s
// — the cutoff for dominator scans (everything from here on cannot dominate
// a tuple of sum s) and the stable insertion point for a tuple of sum s.
func (c *cell) firstAbove(s float64) int {
	lo, hi := 0, len(c.tuples)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.tuples[mid].sum <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	stats  *smj.Stats
	arena  vecArena
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
	for i := range c.tuples {
		s.pendingFree = append(s.pendingFree, c.tuples[i].v)
	}
	c.tuples = nil
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
	if s.dominatedWithin(c, v, sum) {
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
			if p.visited == epoch || len(p.tuples) == 0 {
				continue
			}
			p.visited = epoch
			if s.dominatedWithin(p, v, sum) {
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
			if p.visited == epoch || len(p.tuples) == 0 || p.emitted {
				continue
			}
			p.visited = epoch
			s.evictDominated(p, v, sum)
		}
	}
	cv := s.arena.get()
	copy(cv, v)
	s.bufferInsert(c, outTuple{leftID: leftID, rightID: rightID, v: cv, sum: sum})
	if !c.populated {
		s.populate(c)
	}
	return cv
}

// dominatedWithin reports whether any survivor of p dominates the candidate
// vector, counting comparisons into the run stats. The survivor summary
// refutes whole cells in O(d); otherwise the scan walks the SFS-sorted
// buffer up to the sum cutoff (a dominator's sum is at most the candidate's).
func (s *space) dominatedWithin(p *cell, v []float64, sum float64) bool {
	if len(p.tuples) == 0 {
		return false
	}
	for i, m := range p.minV {
		if m > v[i] {
			return false
		}
	}
	end := p.firstAbove(sum)
	for j := 0; j < end; j++ {
		s.stats.DomComparisons++
		if preference.DominatesMin(p.tuples[j].v, v) {
			return true
		}
	}
	return false
}

// evictDominated removes every survivor of p dominated by the candidate
// vector, keeping the buffer sorted and the survivor summary exact. Evicted
// vectors go to pendingFree (see space). Only the suffix of sums not below the
// candidate's can contain victims; the kept prefix contributes to the summary
// without dominance tests.
func (s *space) evictDominated(p *cell, v []float64, sum float64) {
	if len(p.tuples) == 0 {
		return
	}
	// Refute the whole cell when some dimension of the candidate exceeds
	// every survivor (no tuple can be componentwise ≥ the candidate).
	for i, m := range p.maxV {
		if v[i] > m {
			return
		}
	}
	start := p.firstNotBelow(sum)
	keep := p.tuples[:start]
	evicted := false
	for j := start; j < len(p.tuples); j++ {
		u := p.tuples[j]
		s.stats.DomComparisons++
		if preference.DominatesMin(v, u.v) {
			evicted = true
			s.pendingFree = append(s.pendingFree, u.v)
			continue
		}
		keep = append(keep, u)
	}
	if !evicted {
		return
	}
	p.tuples = keep
	if len(p.tuples) > 0 {
		copy(p.minV, p.tuples[0].v)
		copy(p.maxV, p.tuples[0].v)
		for j := 1; j < len(p.tuples); j++ {
			widenSummary(p.minV, p.maxV, p.tuples[j].v)
		}
	}
}

// bufferInsert places t into the cell's buffer keeping SFS order (stable on
// equal sums) and widens the survivor summary.
func (s *space) bufferInsert(c *cell, t outTuple) {
	if c.minV == nil {
		buf := make([]float64, 2*s.d)
		c.minV, c.maxV = buf[:s.d:s.d], buf[s.d:]
	}
	if len(c.tuples) == 0 {
		copy(c.minV, t.v)
		copy(c.maxV, t.v)
	} else {
		widenSummary(c.minV, c.maxV, t.v)
	}
	pos := c.firstAbove(t.sum)
	c.tuples = append(c.tuples, outTuple{})
	copy(c.tuples[pos+1:], c.tuples[pos:])
	c.tuples[pos] = t
}

// widenSummary grows the min/max summary vectors to cover v.
func widenSummary(minV, maxV, v []float64) {
	for i, x := range v {
		if x < minV[i] {
			minV[i] = x
		}
		if x > maxV[i] {
			maxV[i] = x
		}
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
	s.idx.addPopulated(c)
	if s.idx.strictUpperBoxVolume(c.coords) == 0 {
		// No covered cell lies strictly above in every dimension.
		return
	}
	s.idx.eachInStrictUpperBox(c.coords, func(q *cell) {
		if !q.marked {
			s.mark(q)
		}
	})
}

// regionDone decrements RegCount for every cell of a processed or discarded
// region — its coordinate box, in ascending flat order — finalizing cells
// that can no longer receive tuples: the entry point of ProgDetermine
// (Algorithm 2).
func (s *space) regionDone(r *region) {
	s.idx.eachInBox(r.minC, r.maxC, func(c *cell) {
		c.regCount--
		if c.regCount == 0 && !c.finalized {
			s.finalize(c)
		}
	})
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
	if c.emitted || c.marked || !c.finalized || len(c.tuples) == 0 {
		return
	}
	if b := s.findBlocker(c); b != nil {
		b.watchers = append(b.watchers, c)
		return
	}
	c.emitted = true
	// One span per emitted cell, not per result: two clock reads amortized
	// over the cell's whole buffer keep the emit phase observable without
	// per-tuple overhead.
	tEmit := s.prof.Clock()
	for _, t := range c.tuples {
		s.emit(t)
	}
	s.prof.EndSequencer(obs.PhaseEmit, tEmit)
	s.stats.ResultCount += len(c.tuples)
	if s.traceEmit != nil {
		s.traceEmit(c, len(c.tuples))
	}
}

// findBlocker returns the smallest-flat active cell within the closed lower
// orthant of c (componentwise ≤), or nil if none remains. When the
// coordinate box is small relative to the active set it is enumerated
// directly over the flat table; otherwise the active set is scanned (≈ 2%
// of the calls on the fine_lookahead benchmark workload). Both paths return
// the same cell, keeping the watch graph deterministic.
func (s *space) findBlocker(c *cell) *cell {
	if vol := s.idx.lowerBoxVolume(c.coords); vol <= 4*len(s.active)+4 {
		return s.idx.firstActiveInLowerBox(c.coords)
	}
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
		if !c.emitted && !c.marked && len(c.tuples) > 0 {
			out = append(out, c)
		}
	}
	return out
}
