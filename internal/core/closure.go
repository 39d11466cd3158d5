package core

import "progxe/internal/grid"

// Closure picks.
//
// The static rank (rankOrder) decides which region goes first, not when the
// results it leaves waiting are released. A pending cell — one holding
// survivors, neither emitted nor marked — is released once no live region
// starts at or below it (minC ≤ coords): every region that still covers
// it, or covers an active cell of its closed lower orthant, is such a
// region, so processing or discarding them all releases the cell. From the
// first pending cell on, OrderProgressive schedules by closure picks: take
// the pending cell with the most survivors per join row of those blocker
// regions (Σ joinCard, exact from pairRegions; ties to the smallest flat
// id, and a cell with no uncommitted blocker is skipped), and stable-move
// its blockers to the front of the order not yet committed.
//
// A pick is decided while lookahead regions of the committed prefix remain,
// as if those were processed already: their joinCard has left the costs and
// the new blockers queue behind them, so prefetch workers always have
// committed regions to build. Every input of a pick is sequencer state, so
// every worker count runs the same schedule, and any order fixed pick by
// pick is a legal schedule for Algorithm 1, Line 9 discards included.
//
// Costs are orthant sums over the uncommitted live regions' minC corners,
// kept exact per pending cell. Every region that leaves the mass is logged
// with its packed minC key and joinCard, and each pending cell holds its
// cost as of the previous pick: a pick brings every cost up to date with
// the entries logged since, one branch-free packed-key test each, so a
// (cell, region) pair is tested at most once. A cell costed for the first
// time starts from an orthant scan of the mass — mass holds each in-mass
// region's joinCard at its minC cell — and the entries logged after that
// scan; the scan is redone when those entries have cost the new cells as
// much as a scan. The blockers are found by one pass over the packed minC
// keys of the uncommitted order, which ends at the last of them.

// lookahead is the number of committed regions still ahead of the sequencer
// when the next closure pick is decided. It is a constant, never the worker
// count, so that the schedule is the same for every worker count.
const lookahead = 4

// goneRegion is a region that left the pick costs: its packed minC corner
// and joinCard.
type goneRegion struct {
	key  uint64
	card int64
}

// closure is the closure picks' state; the zero value has not started, and
// startClosure, at the first pick, builds the rest.
type closure struct {
	// forced ends the committed prefix: order[pos:forced] holds the picked
	// blockers not processed yet.
	forced int
	keys   []uint64 // every region's minC corner as a Grid.Key, by id
	flats  []int    // and as a flat cell index
	cards  []int64  // and its joinCard
	// orderKeys is keys in schedule order: orderKeys[i] = keys[order[i]].
	orderKeys []uint64
	inMass    []bool  // the region's joinCard is in mass: live and uncommitted
	mass      []int64 // per cell, Σ joinCard of the in-mass regions cornered there
	sums      []int64 // orthant sums of mass as of log position scanned
	// gone logs the regions that left the mass, in the order they left;
	// scanned is the log position the sums are exact at.
	gone    []goneRegion
	scanned int
	costed  int // the log position every costed pending cell is exact at
	// debt counts the log entries new cells were costed with since the
	// last scan; a scan is due when it would have cost less.
	debt  int
	fresh []*pendingCell // closurePick's scratch: the pending cells never costed
	at    []int          // the last pick's blocker positions in order
	moved []int32        // commitPick's scratch: the blockers' ids
}

// startClosure lays out the closure picks' state over the live regions, all
// of which are uncommitted at the first pick.
func (r *runState) startClosure() {
	g, c := r.space.g, &r.closure
	n := len(r.regions)
	c.keys, c.flats, c.cards, c.inMass = make([]uint64, n), make([]int, n), make([]int64, n), make([]bool, n)
	c.mass, c.sums = make([]int64, g.NumCells()), make([]int64, g.NumCells())
	for i, reg := range r.regions {
		c.keys[i], c.flats[i], c.cards[i] = g.Key(reg.minC), g.Flat(reg.minC), int64(reg.joinCard)
		if r.state[i] == regionLive {
			c.inMass[i] = true
			c.mass[c.flats[i]] += c.cards[i]
		}
	}
	c.orderKeys = make([]uint64, len(r.order))
	for i, id := range r.order {
		c.orderKeys[i] = c.keys[id]
	}
	r.scanMass()
}

// scanMass rebuilds the orthant sums from the mass, as of the log's end.
func (r *runState) scanMass() {
	c := &r.closure
	copy(c.sums, c.mass)
	orthantSums(r.space.g, c.sums)
	c.scanned, c.debt = len(c.gone), 0
}

// orthantSums turns a flat table over g into its orthant sums in place:
// orthantScan's passes, without a call per cell.
func orthantSums(g *grid.Grid, tab []int64) {
	for i := range g.Dims() {
		stride := g.Stride(i)
		span := stride * g.CellsPerDim(i)
		for base := 0; base < len(tab); base += span {
			row := tab[base : base+span]
			for f := stride; f < span; f++ {
				row[f] += row[f-stride]
			}
		}
	}
}

// leaveMass takes a region that is committed, processed or discarded out of
// the pick costs; before the first pick, and for a region already out, it
// does nothing.
func (r *runState) leaveMass(id int) {
	c := &r.closure
	if c.inMass == nil || !c.inMass[id] {
		return
	}
	c.inMass[id] = false
	c.mass[c.flats[id]] -= c.cards[id]
	c.gone = append(c.gone, goneRegion{c.keys[id], c.cards[id]})
}

// closurePick returns the pending cell to release next and the positions in
// order of its blockers — the live regions of order[forced:] with minC ≤ its
// coordinates — ascending, or nil when no pending cell has an uncommitted
// blocker. It changes no order; commitPick does.
func (r *runState) closurePick() (*cell, []int) {
	s, c := r.space, &r.closure
	g := s.g
	// Bring every pending cell's cost up to the log's end (the cells never
	// costed get a wrong value, replaced below).
	pend := s.pending
	for _, e := range c.gone[c.costed:] {
		for i := range pend {
			pend[i].cost -= e.card & g.LeqMask(e.key, pend[i].key)
		}
	}
	c.costed = len(c.gone)
	c.fresh = c.fresh[:0]
	for i := range pend {
		if !pend[i].costed {
			c.fresh = append(c.fresh, &pend[i])
		}
	}
	if len(c.fresh) > 0 {
		// A log entry costs a new cell one packed-key test, a scan about
		// one per cell and dimension: rescan once the entries new cells
		// paid for since the last scan add up to one.
		if c.debt += len(c.fresh) * (len(c.gone) - c.scanned); c.debt > s.d*len(c.sums) {
			r.scanMass()
		}
		for _, p := range c.fresh {
			p.cost, p.costed = c.sums[p.c.flat], true
			for _, e := range c.gone[c.scanned:] {
				p.cost -= e.card & g.LeqMask(e.key, p.key)
			}
		}
	}
	var best *cell
	var bestN, bestCost int64
	for i := range pend {
		p := &pend[i]
		n, cost := int64(len(p.c.buf.ts)), p.cost
		if cost == 0 {
			continue
		}
		// n/cost beats bestN/bestCost, compared exactly.
		if l, rt := n*bestCost, bestN*cost; best == nil || l > rt || l == rt && p.c.flat < best.flat {
			best, bestN, bestCost = p.c, n, cost
		}
	}
	if best == nil {
		return nil, nil
	}
	// The blockers' joinCards add up to the cost exactly, so the pass stops
	// at the last of them.
	c.at = c.at[:0]
	key := best.key
	for i, k := range c.orderKeys[c.forced:] {
		if !g.Leq(k, key) {
			continue
		}
		if at := c.forced + i; r.state[r.order[at]] == regionLive {
			c.at = append(c.at, at)
			if bestCost -= c.cards[r.order[at]]; bestCost == 0 {
				break
			}
		}
	}
	return best, c.at
}

// commitPick stable-moves a pick's blockers — at ascending positions of
// order[forced:] — to the front of it and commits them: each run of other
// regions between two blockers shifts right by the number of blockers after
// it. The prefetch pool takes back what it published of order[forced:] that
// no worker has taken, and publishes again from the new order.
func (r *runState) commitPick(at []int) {
	c := &r.closure
	r.pool.rewind(c.forced)
	m := len(at)
	c.moved = c.moved[:0]
	for _, i := range at {
		c.moved = append(c.moved, r.order[i])
	}
	for j := m - 1; j >= 0; j-- {
		lo := c.forced
		if j > 0 {
			lo = at[j-1] + 1
		}
		copy(r.order[lo+m-j:], r.order[lo:at[j]])
		copy(c.orderKeys[lo+m-j:], c.orderKeys[lo:at[j]])
	}
	for j, id := range c.moved {
		r.order[c.forced+j] = id
		c.orderKeys[c.forced+j] = c.keys[id]
	}
	c.forced += m
	for _, id := range c.moved {
		r.leaveMass(int(id))
	}
	r.pool.publish()
}

// schedule commits closure picks until more than lookahead regions of the
// committed prefix lie ahead of the cursor or no pick is left. The loop
// calls it while a cell is pending: until the first one, the static rank
// runs, and afterwards it fills the gaps between picks.
func (r *runState) schedule() {
	c := &r.closure
	if c.mass == nil {
		r.startClosure()
	}
	c.forced = max(c.forced, r.pos)
	for c.forced-r.pos <= lookahead {
		best, at := r.choose()
		if best == nil {
			return
		}
		r.commitPick(at)
	}
}
