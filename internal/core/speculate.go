package core

import (
	"sync"

	"progxe/internal/grid"
	"progxe/internal/par"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// Speculative cross-round pipelining.
//
// The partitioned-commit path (commit.go) serializes rounds on a drain
// barrier: round N+1's phase-1 precheck cannot read the space until round
// N's committer logs are fully applied. The speculator removes that
// dependency by giving phase 1 a state it can read at ANY time: an
// append-only view of every survivor vector ever routed, owned and written
// only by the sequencer during verdict routing.
//
// Soundness rests on one invariant of the dominance protocol: every vector
// ever inserted is, at all later times, dominated-or-equal by some
// live-or-emitted survivor (eviction replaces a tuple only with a strict
// dominator; a mark drop is covered by the strictly-below populating
// tuple; emitted buffers are immutable). Therefore:
//
//   - a REJECTION computed against the view at any version V is final: the
//     stale dominator implies, transitively, a live one at the candidate's
//     actual turn — exactly the argument that already makes precheck
//     rejections final within a round, extended across rounds;
//   - a SURVIVAL at version V needs only the per-round survivor deltas
//     admitted after V: a fresh dominator at the candidate's turn was
//     inserted at some version, ≤ V (the view scan finds it) or > V (the
//     delta revalidation finds it). A dominating vector is componentwise ≤
//     its victim, so its cell is too — no cell filtering is needed for
//     correctness, only as the usual comparability short-circuit.
//
// So (stale verdict ∧ delta revalidation) ≡ fresh pre-round verdict, and
// the round's commit loop is byte-identical to the non-speculative path:
// the sequencer still applies the current marked check first, the
// intra-round filter, and routes every op in canonical order.
//
// Scheduling: scans launch at the END of a round's routing pass (after the
// delta is pushed) against prefetched jobs further down the prefetch
// order, and the sequencer fences ALL outstanding scans before the next
// round's routing pass mutates anything a scan reads (the view, the cell
// index buckets, marked flags). In the window between launch and fence the
// sequencer only runs the determination cascade — which mutates finalized/
// emitted/active/watcher state, never buckets or marks — so scans overlap
// the cascade, the scheduler, the next prefetch take, and (the payoff) the
// drain the sequencer now SKIPS on rounds whose stale verdicts it can use.
//
// Ownership: the view, the delta ring, and every specResult state field
// are sequencer-owned; workers touch only a result's rejected slice, its
// comparison counter, and its WaitGroup, all handed over and back through
// channel/WaitGroup happens-before edges.

const (
	// specMaxDepth caps the speculation depth (outstanding stale scans).
	specMaxDepth = 8
	// specPendingMax bounds the consumed-but-unreleased region queue: a
	// drain is forced once this many candidate buffers are retained by
	// in-flight logs, bounding memory and sem-slot retention.
	specPendingMax = 4
	// specRingCap bounds the delta ring. A stale verdict older than the
	// ring's coverage is discarded (the fresh path runs instead), so the
	// cap trades re-scan risk for revalidation cost, never correctness.
	specRingCap = 64
	// specLookahead bounds how far down the prefetch order launch scans
	// for speculation-eligible jobs each round.
	specLookahead = 64
)

// specResult lifecycle (sequencer-owned).
const (
	specNone int8 = iota
	specLaunched
	specConsumed
)

// specEntry is one ever-routed survivor in the view: its vector (a
// speculator-arena copy, never recycled) and cached coordinate sum.
type specEntry struct {
	sum float64
	v   []float64
}

// specCellView is one cell's slice of the view: the entries routed to it,
// in routing order, plus their elementwise-min summary for O(d) refutation
// (the append-only analogue of cell.minV).
type specCellView struct {
	minV    []float64
	entries []specEntry
}

// specView is the append-only survivor history, indexed by cell.seq.
// Appended only during the sequencer's routing pass; read by scan tasks
// only between a round's launch and the next round's fence.
type specView struct {
	d     int
	cells []specCellView
	arena vecArena
}

// cellDominates reports whether any view entry of the cell dominates the
// candidate vector, mirroring cellDominates over live buffers (summary
// refutation, sum cutoff per entry — entries are in routing order, not SFS
// order, so the cutoff is per-entry rather than a prefix).
func (w *specView) cellDominates(seq int32, v []float64, sum float64, comps *int) bool {
	vc := &w.cells[seq]
	if len(vc.entries) == 0 {
		return false
	}
	for i, m := range vc.minV {
		if m > v[i] {
			return false
		}
	}
	for k := range vc.entries {
		e := &vc.entries[k]
		if e.sum > sum {
			continue
		}
		*comps++
		if preference.DominatesMin(e.v, v) {
			return true
		}
	}
	return false
}

// deltaSurv is one survivor of a ring delta: the round-new vector (view
// arena backed), its sum, and its cell for the comparability filter.
type deltaSurv struct {
	c   *cell
	sum float64
	v   []float64
}

// specDelta is the survivor set of one version increment.
type specDelta struct {
	version int
	survs   []deltaSurv
}

// specResult is the outcome of one region's speculative scan.
type specResult struct {
	state    int8
	version  int // view version the scan ran against
	comps    int // worker-side comparisons, folded at take/drop
	rejected []bool
	wg       sync.WaitGroup
}

// specTask is one speculative scan, served by the precheck workers off the
// pool's spec channel at lower priority than round-critical barrier tasks.
type specTask struct {
	sp    *speculator
	cands []cand
	res   *specResult
}

// run computes the stale verdicts of one region's whole candidate stream.
// Marked cells are skipped exactly like precheckTask.run — the sequencer
// re-checks (and counts) marks at commit time, where marks added after the
// snapshot are also visible.
func (t *specTask) run(st *precheckState) {
	comps := 0
	for k := range t.cands {
		if par.YieldHook != nil && k%64 == 0 {
			par.YieldHook()
		}
		cd := &t.cands[k]
		c := t.sp.s.cellAt(cd.flat)
		if c == nil || c.marked {
			continue
		}
		if t.sp.scanDominated(c, cd.v, cd.sum, st, &comps) {
			t.res.rejected[k] = true
		}
	}
	t.res.comps = comps
	t.res.wg.Done()
}

// speculator coordinates cross-round speculative prechecks for one run.
// All fields are sequencer-owned; see the package comment above for the
// handoff discipline.
type speculator struct {
	depth int
	s     *space
	pool  *pool
	stats *smj.Stats

	view    specView
	version int // rounds with ≥1 survivor so far
	ring    []specDelta

	results  []specResult // by region id
	launched []int32      // region ids with launched, unconsumed scans
	cursor   int          // prefetch-order position for launch scans
	freeRej  [][]bool
}

// newSpeculator sizes the speculator for a run; depth is clamped to
// specMaxDepth.
func newSpeculator(depth int, s *space, p *pool, stats *smj.Stats) *speculator {
	if depth > specMaxDepth {
		depth = specMaxDepth
	}
	sp := &speculator{
		depth:   depth,
		s:       s,
		pool:    p,
		stats:   stats,
		results: make([]specResult, len(p.jobs)),
	}
	sp.view.d = s.d
	sp.view.arena.d = s.d
	sp.view.cells = make([]specCellView, len(s.cellList))
	return sp
}

// record copies a surviving candidate's vector into the view (under its
// cell, in routing order) and returns the copy. The caller aliases
// roundNew/roundSurv to it, so the round's delta outlives the candidate
// buffer regardless of when that buffer is recycled.
func (sp *speculator) record(c *cell, cd *cand) []float64 {
	cv := sp.view.arena.get()
	copy(cv, cd.v)
	vc := &sp.view.cells[c.seq]
	if len(vc.entries) == 0 {
		if vc.minV == nil {
			vc.minV = make([]float64, sp.view.d)
		}
		copy(vc.minV, cv)
	} else {
		for i, x := range cv {
			if x < vc.minV[i] {
				vc.minV[i] = x
			}
		}
	}
	vc.entries = append(vc.entries, specEntry{sum: cd.sum, v: cv})
	return cv
}

// pushDelta closes the current round's delta: if the round routed any
// survivor the version advances and the survivors join the ring.
func (sp *speculator) pushDelta(survs []roundSurv) {
	if len(survs) == 0 {
		return
	}
	sp.version++
	ds := make([]deltaSurv, len(survs))
	for i := range survs {
		u := &survs[i]
		ds[i] = deltaSurv{c: u.c, sum: u.sum, v: u.v}
	}
	sp.ring = append(sp.ring, specDelta{version: sp.version, survs: ds})
	if len(sp.ring) > specRingCap {
		sp.ring[0] = specDelta{}
		sp.ring = sp.ring[1:]
	}
}

// launch starts speculative scans for prefetched jobs down the prefetch
// order, up to the configured depth. Called at the end of a round's routing
// pass, so scans overlap the determination cascade, the scheduler, and —
// when their verdicts get used — the drain the next round skips.
func (sp *speculator) launch() {
	p := sp.pool
	for sp.cursor < len(p.order) {
		id := p.order[sp.cursor]
		j := &p.jobs[id]
		if j.state.Load() == jobConsumed || j.reg.state != regionLive {
			sp.cursor++
			continue
		}
		break
	}
	lim := sp.cursor + specLookahead
	if lim > len(p.order) {
		lim = len(p.order)
	}
	for i := sp.cursor; i < lim && len(sp.launched) < sp.depth; i++ {
		id := p.order[i]
		j := &p.jobs[id]
		sr := &sp.results[id]
		if sr.state != specNone || j.reg.state != regionLive {
			continue
		}
		if j.state.Load() != jobDone || j.n < precheckMinCands {
			continue
		}
		sr.state = specLaunched
		sr.version = sp.version
		sr.comps = 0
		sr.rejected = sp.getRejected(j.n)
		sr.wg.Add(1)
		sp.launched = append(sp.launched, id)
		sp.stats.SpecRounds++
		p.specCh <- &specTask{sp: sp, cands: j.buf.cands[:j.n], res: sr}
	}
}

// take claims the region's speculative result at its turn, waiting out a
// scan still in flight; nil when the region was never speculated.
func (sp *speculator) take(reg *region) *specResult {
	sr := &sp.results[reg.id]
	if sr.state != specLaunched {
		return nil
	}
	sr.wg.Wait()
	sp.stats.DomComparisons += sr.comps
	sp.unlaunch(int32(reg.id))
	return sr
}

// usable reports whether the delta ring still covers every version the
// stale verdicts must be revalidated against (sr.version+1 .. current).
func (sp *speculator) usable(sr *specResult) bool {
	if sr.version == sp.version {
		return true
	}
	return len(sp.ring) > 0 && sp.ring[0].version <= sr.version+1
}

// fence blocks until every outstanding scan completes. The sequencer calls
// it before a round's first mutation of scan-read state; results stay
// claimable by later takes.
func (sp *speculator) fence() {
	for _, id := range sp.launched {
		sp.results[id].wg.Wait()
	}
}

// release recycles a consumed result's verdict slice.
func (sp *speculator) release(sr *specResult) {
	sr.state = specConsumed
	if sr.rejected != nil {
		sp.freeRej = append(sp.freeRej, sr.rejected)
		sr.rejected = nil
	}
}

// drop retires a discarded region's speculation, waiting out an in-flight
// scan so the candidate buffer it reads can be recycled by pool.drop
// (which the engine calls right after).
func (sp *speculator) drop(reg *region) {
	sr := &sp.results[reg.id]
	if sr.state != specLaunched {
		sr.state = specConsumed
		return
	}
	sr.wg.Wait()
	sp.stats.DomComparisons += sr.comps
	sp.unlaunch(int32(reg.id))
	sp.release(sr)
}

func (sp *speculator) unlaunch(id int32) {
	for i, x := range sp.launched {
		if x == id {
			sp.launched[i] = sp.launched[len(sp.launched)-1]
			sp.launched = sp.launched[:len(sp.launched)-1]
			return
		}
	}
}

func (sp *speculator) getRejected(n int) []bool {
	if k := len(sp.freeRej); k > 0 {
		r := sp.freeRej[k-1]
		sp.freeRej = sp.freeRej[:k-1]
		if cap(r) >= n {
			r = r[:n]
			clear(r)
			return r
		}
	}
	return make([]bool, n)
}

// scanDominated is the view-backed twin of space.precheckDominated:
// identical bucket-prefix enumeration and goroutine-local visit stamps,
// but cells refute and scan through their view slices instead of their
// live buffers. Every view-populated cell is in the buckets (its first
// routed insert populated it), so the walk covers the full dominator set;
// the candidate's own cell is checked first, populated or not.
func (sp *speculator) scanDominated(c *cell, v []float64, sum float64, st *precheckState, comps *int) bool {
	s := sp.s
	view := &sp.view
	epoch := st.stamp(c)
	if view.cellDominates(c.seq, v, sum, comps) {
		return true
	}
	packed := s.idx.packed
	for i := 0; i < s.d; i++ {
		b := s.idx.buckets[i][c.coords[i]]
		for j := bucketSplit(b, c.flat) - 1; j >= 0; j-- {
			e := &b[j]
			if packed {
				if !keyLeq(e.key, c.key) {
					continue
				}
			} else if !grid.LeqAll(e.c.coords, c.coords) {
				continue
			}
			p := e.c
			if st.visited[p.seq] == epoch || len(view.cells[p.seq].entries) == 0 {
				continue
			}
			st.visited[p.seq] = epoch
			if view.cellDominates(p.seq, v, sum, comps) {
				return true
			}
		}
	}
	return false
}

// deltaDominated revalidates one speculative survivor against the deltas
// admitted after its snapshot version: any dominator inserted since then
// is in exactly one ring entry. The sum and cell-comparability filters are
// the usual short-circuits (a dominator's cell is automatically
// componentwise ≤ the victim's), affecting only comparison counts.
func (sp *speculator) deltaDominated(c *cell, cd *cand, version int, comps *int) bool {
	s := sp.s
	packed := s.idx.packed
	for i := len(sp.ring) - 1; i >= 0; i-- {
		d := &sp.ring[i]
		if d.version <= version {
			break // ring versions ascend; everything earlier is in the view
		}
		for j := range d.survs {
			u := &d.survs[j]
			if u.sum > cd.sum {
				continue
			}
			if packed {
				if !keyLeq(u.c.key, c.key) {
					continue
				}
			} else if !grid.LeqAll(u.c.coords, c.coords) {
				continue
			}
			*comps++
			if preference.DominatesMin(u.v, cd.v) {
				return true
			}
		}
	}
	return false
}
