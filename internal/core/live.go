package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// This file implements incremental output-space maintenance: a LiveSpace
// holds every mapped join output of one query resident and applies a change
// feed of base-relation inserts and deletes, emitting result records for
// tuples that join the skyline and retract records for tuples that leave it.
//
// The correctness model is the batch engine's, held under mutation:
//
//   - survivors (alive tuples) are exactly the skyline over every currently
//     mapped join output;
//   - dominated (dead) tuples stay resident, because a later delete of their
//     dominators may promote them back.
//
// Two invariants carry every proof below. (1) Every dead tuple is dominated
// by at least one alive tuple: true when it dies (it was beaten by a
// survivor), and preserved when its dominator w is itself evicted by a new
// v, since DominatesMin is transitive (v ≤ w ≤ u with strictness inherited).
// (2) A dominator's coordinate sum is never larger than its victim's, though
// rounding can make the two equal; survivors.go states the tie rule every
// cutoff on the sum-sorted cell buffers follows.
//
// Invariant (2) is why the initial build needs no eviction. Visit the mapped
// join in ascending (sum, seq) order and every dominator of a tuple has
// either been visited already or sits in the tuple's own run of equal sums:
// a tuple that no alive tuple and no later member of its run dominates can
// never be dominated by anything still to come, so it joins its cell's alive
// buffer and is handed to the sink at once, final; a dominated one is
// attached to the witness that beat it. Nothing is retracted or re-checked
// (sort-filter-skyline, the order the batch cells use too). Delete promotion
// is the same walk over its candidates, for the same reason: settle is both.
//
// Cells index survivors only. A dead tuple is reached through byBase (when
// one of its base tuples is deleted) and through its referee's deps (when
// the referee leaves the alive set) — the only two events that concern it.

// LiveSink receives the incremental output of a LiveSpace. Result delivers a
// tuple entering the net result set; Retract withdraws a previously
// delivered pair. Implementations must not retain r.Out.
type LiveSink interface {
	Result(r smj.Result)
	Retract(leftID, rightID int64)
}

// LiveStats counts the work a LiveSpace has performed since construction.
type LiveStats struct {
	Inserts     int // base-tuple inserts applied
	Deletes     int // base-tuple deletes applied
	Results     int // result emissions (snapshot included)
	Retractions int // retract emissions
	Promotions  int // dead tuples promoted back by deletes
	Comparisons int // tuple-level dominance tests
}

// liveTuple is one mapped join output resident in the space. v is the
// canonical (all-minimized) output vector; alive marks skyline membership.
//
// Every dead tuple carries a referee: one alive tuple that dominates it (ref,
// with refIdx its slot in the referee's deps list for O(1) detach). The
// referee relation inverts invariant (1) into an index — a dead tuple can
// need promotion only when its referee leaves the alive set, so a delete
// re-checks just the dependents of the survivors it removed instead of
// sweeping the dominated orthant of every one.
type liveTuple struct {
	leftID, rightID int64
	v               []float64
	sum             float64
	seq             int64 // arrival order, tiebreak for equal sums
	alive           bool
	cell            *liveCell // home cell; holds the tuple only while alive

	ref    *liveTuple   // alive dominator refereeing this dead tuple
	refIdx int          // index of this tuple in ref.deps
	deps   []*liveTuple // dead tuples this alive tuple referees
}

// attach makes alive tuple w the referee of dead tuple u.
func attach(w, u *liveTuple) {
	u.ref = w
	u.refIdx = len(w.deps)
	w.deps = append(w.deps, u)
}

// detach removes u from its referee's dependent list (swap-remove).
func detach(u *liveTuple) {
	w := u.ref
	if w == nil {
		return
	}
	last := len(w.deps) - 1
	moved := w.deps[last]
	w.deps[u.refIdx] = moved
	moved.refIdx = u.refIdx
	w.deps = w.deps[:last]
	u.ref = nil
}

// liveCell is one populated output-space cell. It buffers its survivors
// only, sorted ascending by (sum, seq), so dominance checks, eviction sweeps
// and promotion re-checks never step over the dead majority.
type liveCell struct {
	pos    int // index in LiveSpace.cellList
	coords []int
	buf    survivors[*liveTuple]
	// dom/vic cache the cell-level dominance adjacency: dom holds every cell
	// whose coords are ≤ ours componentwise (where dominators can live), vic
	// every cell with coords ≥ ours (where victims and promotion candidates
	// can live); both include the cell itself. domN/vicN record len(cellList)
	// when the list was last extended — new cells are appended lazily, so
	// keeping a list current is O(cells created since), not O(all cells).
	dom  []*liveCell
	vic  []*liveCell
	domN int
	vicN int
}

// byRank orders tuples ascending by (sum, seq), the order of every cell
// buffer and of settle.
func byRank(a, b *liveTuple) int {
	if c := cmp.Compare(a.sum, b.sum); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// runEnd returns the end of the run of equal sums that starts at ts[i].
func runEnd(ts []*liveTuple, i int) int {
	j := i + 1
	for j < len(ts) && ts[j].sum == ts[i].sum {
		j++
	}
	return j
}

// dominatedBy reports whether any tuple of run dominates t. It covers the
// one case ascending-sum order leaves open: a later member of t's own run of
// equal sums that dominates it (possible only where rounding erased the
// strict sum gap).
func dominatedBy(run []*liveTuple, t *liveTuple) bool {
	for _, o := range run {
		if preference.DominatesMin(o.v, t.v) {
			return true
		}
	}
	return false
}

// LiveSpace is the resident incremental-maintenance state for one query: the
// base relations, their join index, every mapped join output (dead ones
// reached through byBase and their referees), and the output-space cells
// holding the survivors.
//
// LiveSpace is not safe for concurrent use; the serve layer runs one
// goroutine per subscription.
type LiveSpace struct {
	pref *preference.Pareto // original orientation, for decanonicalization
	maps interface {
		Map(left, right, dst []float64) []float64
	} // canonical mapping set (HIGHEST dims pre-negated)
	d     int
	arity [2]int   // attributes per base tuple, per side
	used  [2][]int // attributes some mapping function reads, per side
	g     *grid.Grid

	cells    []*liveCell // flat id → populated cell, nil elsewhere
	cellList []*liveCell // populated cells in creation order

	base    [2]map[int64]relation.Tuple // resident base tuples per side
	byKey   [2]map[int64][]int64        // join key → base IDs, per side
	byBase  [2]map[int64][]*liveTuple   // base ID → mapped tuples it is part of
	nextSeq int64

	stats LiveStats
}

// liveGridCells caps the per-dimension resolution of the maintenance grid so
// the cell count stays near 4096 up to d = 12; from there on the grid is 2^d
// cells, and past d = 21 grid.MaxCells refuses it. The cap is deliberately
// coarse: every populated cell carries fixed per-scan overhead (adjacency
// walk, binary-search cutoff), so fat cells with effective summary refutation
// beat many near-empty ones.
func liveGridCells(d int) int { return min(autoOutputCells(d), 16) }

// NewLiveSpace builds the settled resident state for p: StageLive followed by
// BuildContext with no sink. The initial net result set is available via
// Results.
func NewLiveSpace(p *smj.Problem) (*LiveSpace, error) {
	st, err := StageLive(p)
	if err != nil {
		return nil, err
	}
	return st.BuildContext(context.Background(), nil)
}

// LiveStage is a LiveSpace whose base relations are registered and checked
// but not yet joined. BuildContext maps the join, bounds the grid and places
// the tuples; a pair that maps to a non-finite output fails it.
type LiveStage struct {
	ls          *LiveSpace
	left, right []relation.Tuple // the canonical relations, registered
}

// StageLive validates p and decides what can refuse it without mapping the
// join: it registers both relations under ApplyInsert's checks (arity,
// finite values where a mapping function reads, no duplicate ID on a side)
// and checks that the maintenance grid is within grid.MaxCells.
func StageLive(p *smj.Problem) (*LiveStage, error) {
	cp, err := p.Canonicalized()
	if err != nil {
		return nil, err
	}
	ls := newLiveSpace(p, cp)
	left, right := cp.Left.Tuples, cp.Right.Tuples
	for s, ts := range [2][]relation.Tuple{left, right} {
		for _, t := range ts {
			if err := ls.check(mapping.Side(s), t); err != nil {
				return nil, err
			}
			ls.add(mapping.Side(s), t)
		}
	}
	if _, err := grid.Size(slices.Repeat([]int{liveGridCells(ls.d)}, ls.d)); err != nil {
		return nil, fmt.Errorf("live: output grid: %w", err)
	}
	return &LiveStage{ls: ls, left: left, right: right}, nil
}

// mapJoin maps every join pair once and returns the pairs in seq order with
// the componentwise bounds of their outputs, polling ctx every buildPoll
// pairs. A pair that maps to a non-finite output is an error.
//
// The join is enumerated in the order a replay of the relations through
// ApplyInsert would take — left side first (no partners yet), then every
// right tuple in relation order against its left partners by ascending ID —
// so seq numbers, byBase lists and (in Build) cell creation order are exactly
// the replay's, and with them the retract order of every later apply.
func (ls *LiveSpace) mapJoin(ctx context.Context, left, right []relation.Tuple) (all []*liveTuple, lo, hi []float64, err error) {
	d := ls.d
	// The left relation by join key: each key's positions, by ascending ID.
	partners := make(map[int64][]int, len(ls.byKey[mapping.Left]))
	for i, lt := range left {
		partners[lt.JoinKey] = append(partners[lt.JoinKey], i)
	}
	for _, ps := range partners {
		slices.SortFunc(ps, func(a, b int) int { return cmp.Compare(left[a].ID, left[b].ID) })
	}
	n := 0
	for _, rt := range right {
		n += len(partners[rt.JoinKey])
	}
	lo, hi = slices.Repeat([]float64{math.Inf(1)}, d), slices.Repeat([]float64{math.Inf(-1)}, d)
	// Each byBase list gets its own exactly sized allocation: a list carved
	// out of a shared backing array would keep the mapped tuples of a deleted
	// base tuple reachable for as long as any neighbour lives.
	all = make([]*liveTuple, 0, n)
	leftLists := make([][]*liveTuple, len(left))
	next := buildPoll
	for _, rt := range right {
		ps := partners[rt.JoinKey]
		if len(ps) == 0 {
			continue
		}
		if len(all) >= next {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
			next = len(all) + buildPoll
		}
		fanout := len(ls.byKey[mapping.Right][rt.JoinKey])
		mine := make([]*liveTuple, 0, len(ps))
		for _, li := range ps {
			nt, err := ls.mapPair(left[li], rt, int64(len(all)))
			if err != nil {
				return nil, nil, nil, err
			}
			for i, x := range nt.v {
				lo[i], hi[i] = min(lo[i], x), max(hi[i], x)
			}
			if leftLists[li] == nil {
				leftLists[li] = make([]*liveTuple, 0, fanout)
			}
			leftLists[li] = append(leftLists[li], nt)
			mine = append(mine, nt)
			all = append(all, nt)
		}
		ls.byBase[mapping.Right][rt.ID] = mine
	}
	for li, lst := range leftLists {
		if lst != nil {
			ls.byBase[mapping.Left][left[li].ID] = lst
		}
	}
	ls.nextSeq = int64(len(all))
	return all, lo, hi, nil
}

// mapPair maps the join pair (l, r) to a new dead tuple numbered seq; a
// non-finite output is an error.
func (ls *LiveSpace) mapPair(l, r relation.Tuple, seq int64) (*liveTuple, error) {
	nt := &liveTuple{leftID: l.ID, rightID: r.ID, v: make([]float64, ls.d), seq: seq}
	for _, x := range ls.maps.Map(l.Vals, r.Vals, nt.v) {
		if x-x != 0 { // NaN, ±Inf
			return nil, fmt.Errorf("live: left tuple %d and right tuple %d map to a %w", l.ID, r.ID, ErrNonFiniteOutput)
		}
		nt.sum += x
	}
	return nt, nil
}

// newLiveSpace returns the empty space of p, whose canonical form is cp.
func newLiveSpace(p, cp *smj.Problem) *LiveSpace {
	ls := &LiveSpace{
		pref: p.Pref,
		maps: cp.Maps,
		d:    cp.Maps.Dims(),
	}
	for s, rel := range [2]*relation.Relation{cp.Left, cp.Right} {
		ls.arity[s] = rel.Schema.Arity()
		ls.used[s] = cp.Maps.UsedAttrs(mapping.Side(s))
		ls.base[s] = make(map[int64]relation.Tuple, len(rel.Tuples))
		ls.byKey[s] = make(map[int64][]int64)
		ls.byBase[s] = make(map[int64][]*liveTuple, len(rel.Tuples))
	}
	return ls
}

// setGrid lays the maintenance grid over the box [lo, hi] of the initial
// mapped outputs (an empty join leaves lo > hi: any finite box works) and
// sizes the flat cell table over it. Later inserts may fall outside it:
// grid.Coord clamps monotonically, so componentwise vector order still
// implies componentwise cell-coordinate order and every orthant scan stays
// sound.
func (ls *LiveSpace) setGrid(lo, hi []float64) error {
	for i := range lo {
		if lo[i] > hi[i] {
			lo[i], hi[i] = 0, 1
		}
	}
	b, err := grid.NewBounds(lo, hi)
	if err != nil {
		return err
	}
	ls.g, err = grid.Uniform(b, liveGridCells(ls.d))
	if err != nil {
		return fmt.Errorf("live: output grid: %w", err)
	}
	ls.cells = make([]*liveCell, ls.g.NumCells())
	return nil
}

// denseGridCells is the largest grid for which Build links the cell
// adjacency lists by walking coordinate boxes of the flat table;
// liveGridCells keeps every grid of up to 12 dimensions within it. Larger
// grids leave the lists to domCells and vicCells.
const denseGridCells = 1 << 12

// buildPoll is how many tuples BuildContext maps or settles between two
// looks at its context.
const buildPoll = 4096

// BuildContext maps the join, lays the grid over the box of the mapped
// outputs, places every tuple and returns the settled space. Survivors are
// delivered to sink (which may be nil) in ascending (sum, seq) order, each
// the moment it is proven — see the file comment for why each is final. It
// looks at ctx every buildPoll tuples of the mapping and of the dominance
// pass and gives up with ctx's error once it is done; a pair that maps to a
// non-finite output fails it too. The stage must not be used again.
func (st *LiveStage) BuildContext(ctx context.Context, sink LiveSink) (*LiveSpace, error) {
	ls, left, right := st.ls, st.left, st.right
	st.ls, st.left, st.right = nil, nil, nil
	all, lo, hi, err := ls.mapJoin(ctx, left, right)
	if err != nil {
		return nil, err
	}
	if err := ls.setGrid(lo, hi); err != nil {
		return nil, err
	}

	// Cells are created in seq order, as a replay would create them: an
	// eviction sweep retracts in cellList order.
	for _, t := range all {
		t.cell = ls.cellFor(t.v)
	}
	if ls.g.NumCells() <= denseGridCells {
		ls.linkCells()
	}

	type sumKey struct {
		sum float64
		idx int32
	}
	keys := make([]sumKey, len(all))
	for i, t := range all {
		keys[i] = sumKey{t.sum, int32(i)}
	}
	slices.SortFunc(keys, func(a, b sumKey) int {
		switch { // a sum of finite components is never NaN
		case a.sum < b.sum:
			return -1
		case a.sum > b.sum:
			return 1
		}
		return int(a.idx - b.idx)
	})
	order := make([]*liveTuple, len(all))
	for i, k := range keys {
		order[i] = all[k.idx]
	}
	// Settle in chunks that end on a run boundary, so every run of equal
	// sums is decided within one call, looking at ctx between chunks.
	last := make([]*liveTuple, len(ls.cellList))
	for i := 0; i < len(order); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j := min(i+buildPoll, len(order))
		for j < len(order) && order[j].sum == order[j-1].sum {
			j++
		}
		ls.settle(order[i:j], last, sink)
		i = j
	}
	ls.stats = LiveStats{Results: ls.stats.Results} // the build is not feed work
	return ls, nil
}

// settle decides every tuple of order — dead, detached, and sorted by
// (sum, seq) — against the alive set, in that order: a tuple some alive tuple
// dominates is attached to it and stays dead; one that a later member of its
// run of equal sums dominates is an orphan, attached once the run is done
// (the run's survivors are all alive then, and the top of its chain of
// dominators within the run is one of them); any other joins the alive set
// and is emitted, final. Build settles the whole join, delete promotion the
// dependents of the survivors it removed.
//
// last, when non-nil, caches per cell (by pos) the witness that most recently
// killed a tuple homed there. Neighbours in sum order tend to die to the same
// survivor, so it is tried before the dominator cells are walked. It is
// sound only while nothing is evicted, as in Build.
func (ls *LiveSpace) settle(order, last []*liveTuple, sink LiveSink) {
	var orphans []*liveTuple
	for i := 0; i < len(order); {
		j := runEnd(order, i)
		for x := i; x < j; x++ {
			t := order[x]
			c := t.cell
			var w *liveTuple
			if last != nil {
				w = last[c.pos]
			}
			if w == nil || !preference.DominatesMin(w.v, t.v) {
				w = ls.dominated(c, t.v, t.sum)
			}
			switch {
			case w != nil:
				attach(w, t)
				if last != nil {
					last[c.pos] = w
				}
			case dominatedBy(order[x+1:j], t):
				orphans = append(orphans, t)
			default:
				ls.stats.Promotions++
				ls.admit(t, sink)
			}
		}
		for _, t := range orphans {
			attach(ls.dominated(t.cell, t.v, t.sum), t)
		}
		orphans = orphans[:0]
		i = j
	}
}

// linkCells builds the dom and vic lists of every cell at once. A cell's
// dominator cells fill the coordinate box between the origin and the cell,
// so walking that box through the flat cell table finds them without testing
// every pair of cells; the vic lists are the transpose, filled in cellList
// order — the order the lazy vicCells keeps, which eviction sweeps retract in.
func (ls *LiveSpace) linkCells() {
	origin := make([]int, ls.d)
	vics := make([]int, len(ls.cellList))
	var box []*liveCell
	for _, c := range ls.cellList {
		box = box[:0]
		for flat := range ls.g.Box(origin, c.coords) {
			if n := ls.cells[flat]; n != nil {
				box = append(box, n)
				vics[n.pos]++
			}
		}
		c.dom = slices.Clone(box)
		c.domN = len(ls.cellList)
	}
	for _, c := range ls.cellList {
		c.vic = make([]*liveCell, 0, vics[c.pos])
		c.vicN = len(ls.cellList)
	}
	for _, c := range ls.cellList {
		for _, n := range c.dom {
			n.vic = append(n.vic, c)
		}
	}
}

// Stats returns the work counters accumulated since construction.
func (ls *LiveSpace) Stats() LiveStats { return ls.stats }

// Has reports whether a base tuple with the given ID is resident on side.
func (ls *LiveSpace) Has(side mapping.Side, id int64) bool {
	_, ok := ls.base[side][id]
	return ok
}

// cellFor returns (creating if needed) the cell containing canonical vector v.
func (ls *LiveSpace) cellFor(v []float64) *liveCell {
	flat := ls.g.CellOf(v)
	if c := ls.cells[flat]; c != nil {
		return c
	}
	c := &liveCell{
		pos:    len(ls.cellList),
		coords: ls.g.Coords(flat, make([]int, ls.d)),
	}
	ls.cells[flat] = c
	ls.cellList = append(ls.cellList, c)
	return c
}

// domCells returns the cells where dominators of tuples in c can live (coords
// ≤ c's, including c itself), extending the cached list over cells created
// since it was last current.
func (ls *LiveSpace) domCells(c *liveCell) []*liveCell {
	for _, n := range ls.cellList[c.domN:] {
		if grid.LeqAll(n.coords, c.coords) {
			c.dom = append(c.dom, n)
		}
	}
	c.domN = len(ls.cellList)
	return c.dom
}

// vicCells returns the cells where victims and promotion candidates of tuples
// in c can live (coords ≥ c's, including c itself), extending the cached list
// like domCells.
func (ls *LiveSpace) vicCells(c *liveCell) []*liveCell {
	for _, n := range ls.cellList[c.vicN:] {
		if grid.LeqAll(c.coords, n.coords) {
			c.vic = append(c.vic, n)
		}
	}
	c.vicN = len(ls.cellList)
	return c.vic
}

// dominated returns an alive tuple dominating canonical vector v (sum s,
// living in cell home), or nil — the witness becomes the referee when the
// caller demotes. Candidate cells are home's cached dominator cells.
func (ls *LiveSpace) dominated(home *liveCell, v []float64, s float64) *liveTuple {
	for _, c := range ls.domCells(home) {
		if j := c.buf.dominator(v, s, &ls.stats.Comparisons); j >= 0 {
			return c.buf.ts[j].p
		}
	}
	return nil
}

// evict retracts every alive tuple the new tuple nt dominates, demoting each
// to dead with nt as referee; each victim's own dependents transfer to nt
// (transitivity keeps their referee a dominator). Victim cells are home's
// cached victim cells, swept in order.
func (ls *LiveSpace) evict(home *liveCell, nt *liveTuple, sink LiveSink) {
	for _, c := range ls.vicCells(home) {
		c.buf.evict(nt.v, nt.sum, &ls.stats.Comparisons, func(e survivor[*liveTuple]) {
			t := e.p
			t.alive = false
			ls.retract(t, sink)
			for _, u := range t.deps {
				attach(nt, u)
			}
			t.deps = nil
			attach(nt, t)
		})
	}
}

// place routes one freshly mapped tuple through the insert protocol: if
// dominated it stays dead under its dominator, otherwise it evicts its
// victims, joins its cell's alive set, and is emitted.
func (ls *LiveSpace) place(t *liveTuple, sink LiveSink) {
	c := ls.cellFor(t.v)
	t.cell = c
	if w := ls.dominated(c, t.v, t.sum); w != nil {
		attach(w, t)
		return
	}
	ls.evict(c, t, sink)
	ls.admit(t, sink)
}

// admit makes t alive: it joins its cell's buffer at its (sum, seq) rank — a
// promotion re-inserts an old seq among equal sums — and is emitted.
func (ls *LiveSpace) admit(t *liveTuple, sink LiveSink) {
	t.alive = true
	b := &t.cell.buf
	at, _ := slices.BinarySearchFunc(b.ts, t, func(e survivor[*liveTuple], t *liveTuple) int { return byRank(e.p, t) })
	b.insert(at, survivor[*liveTuple]{v: t.v, sum: t.sum, p: t})
	ls.emit(t, sink)
}

// emit delivers t as a result in the preference's original orientation.
func (ls *LiveSpace) emit(t *liveTuple, sink LiveSink) {
	ls.stats.Results++
	if sink == nil {
		return
	}
	out := smj.Decanonicalize(ls.pref, slices.Clone(t.v))
	sink.Result(smj.Result{LeftID: t.leftID, RightID: t.rightID, Out: out})
}

// retract withdraws t from the net result set.
func (ls *LiveSpace) retract(t *liveTuple, sink LiveSink) {
	ls.stats.Retractions++
	if sink != nil {
		sink.Retract(t.leftID, t.rightID)
	}
}

// check validates base tuple t for side: values must match the side's
// arity, those a mapping function reads must be finite (the batch engine's
// rule), and a duplicate ID on the side is rejected.
func (ls *LiveSpace) check(side mapping.Side, t relation.Tuple) error {
	if len(t.Vals) != ls.arity[side] {
		return fmt.Errorf("live: tuple %d has %d values, the %v side has %d attributes", t.ID, len(t.Vals), side, ls.arity[side])
	}
	for _, a := range ls.used[side] {
		if v := t.Vals[a]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("live: non-finite value in tuple %d", t.ID)
		}
	}
	if _, dup := ls.base[side][t.ID]; dup {
		return fmt.Errorf("live: duplicate id %d on %v side", t.ID, side)
	}
	return nil
}

// add makes a copy of checked base tuple t resident on side.
func (ls *LiveSpace) add(side mapping.Side, t relation.Tuple) {
	t.Vals = slices.Clone(t.Vals)
	ls.base[side][t.ID] = t
	ls.byKey[side][t.JoinKey] = append(ls.byKey[side][t.JoinKey], t.ID)
}

// ApplyInsert adds base tuple t to side, maps it against every join partner
// on the opposite side, and routes each mapped output through the dominance
// protocol — emitting results for survivors and retracts for the tuples they
// evict. Values must match the side's arity and be finite where a mapping
// function reads them; a duplicate ID on the side is rejected, and so is a
// tuple some pair of which maps to a non-finite output. A refused insert
// leaves the space as it was.
func (ls *LiveSpace) ApplyInsert(side mapping.Side, t relation.Tuple, sink LiveSink) error {
	if side != mapping.Left && side != mapping.Right {
		return fmt.Errorf("live: invalid side %d", side)
	}
	if err := ls.check(side, t); err != nil {
		return err
	}
	other := mapping.Right - side
	partners := slices.Clone(ls.byKey[other][t.JoinKey])
	slices.Sort(partners) // deterministic mapping order
	mapped := make([]*liveTuple, len(partners))
	for i, pid := range partners {
		l, r := t, ls.base[other][pid]
		if side == mapping.Right {
			l, r = r, l
		}
		nt, err := ls.mapPair(l, r, ls.nextSeq+int64(i))
		if err != nil {
			return err
		}
		mapped[i] = nt
	}
	ls.add(side, t)
	ls.stats.Inserts++
	ls.nextSeq += int64(len(mapped))
	for i, nt := range mapped {
		ls.byBase[side][t.ID] = append(ls.byBase[side][t.ID], nt)
		ls.byBase[other][partners[i]] = append(ls.byBase[other][partners[i]], nt)
		ls.place(nt, sink)
	}
	return nil
}

// ApplyDelete removes the base tuple with the given ID from side. Every
// mapped tuple it participates in is withdrawn (alive ones retracted), and
// dead tuples whose referees were among the removed survivors are settled
// again: promoted back into the result set when no alive dominator remains.
//
// Candidate completeness: a dead tuple needs promotion only if it lost its
// last alive dominator, and its referee is an alive dominator — so if the
// referee survived the delete, the tuple stays correctly dead, and otherwise
// it appears in a removed survivor's dependent list. Candidates are settled
// in ascending (sum, seq) order, like the initial build: each is re-checked
// against the current alive set (earlier promotions included) and against the
// later members of its run of equal sums. Any other dominator of a candidate
// was processed first — if it was promoted the re-check sees it, and if it
// stayed dead its own alive dominator transitively covers the candidate.
// Promoted tuples therefore never retroactively dominate one another, and a
// promoted tuple never evicts: it would have to dominate an alive tuple the
// alive antichain already failed to dominate.
func (ls *LiveSpace) ApplyDelete(side mapping.Side, id int64, sink LiveSink) error {
	if side != mapping.Left && side != mapping.Right {
		return fmt.Errorf("live: invalid side %d", side)
	}
	t, ok := ls.base[side][id]
	if !ok {
		return fmt.Errorf("live: no id %d on %v side", id, side)
	}
	ls.stats.Deletes++
	delete(ls.base[side], id)
	if ids := slices.DeleteFunc(ls.byKey[side][t.JoinKey], func(x int64) bool { return x == id }); len(ids) > 0 {
		ls.byKey[side][t.JoinKey] = ids
	} else {
		delete(ls.byKey[side], t.JoinKey)
	}

	removed := ls.byBase[side][id]
	delete(ls.byBase[side], id)
	// Withdraw every removed mapped tuple: retract the survivors, detach the
	// dead from their referees (removed or not, so no removed tuple is left
	// in a deps list), and drop each from the opposite side's byBase list.
	var survivors []*liveTuple
	other := mapping.Right - side
	for _, mt := range removed {
		if mt.alive {
			mt.alive = false
			survivors = append(survivors, mt)
			ls.retract(mt, sink)
		} else {
			detach(mt)
		}
		oid := mt.rightID
		if side == mapping.Right {
			oid = mt.leftID
		}
		lst := ls.byBase[other][oid]
		if i := slices.Index(lst, mt); i >= 0 {
			ls.byBase[other][oid] = slices.Delete(lst, i, i+1)
		}
	}
	// Take the survivors out of their cells (a cell shared by several is
	// filtered by the first), then settle their dependents — the promotion
	// candidates. A dead tuple has exactly one referee, so the lists are
	// disjoint.
	var cands []*liveTuple
	for _, r := range survivors {
		r.cell.buf.deleteFunc(func(x *liveTuple) bool { return !x.alive })
		for _, u := range r.deps {
			u.ref = nil
			cands = append(cands, u)
		}
		r.deps = nil
	}
	slices.SortFunc(cands, byRank)
	ls.settle(cands, nil, sink)
	return nil
}

// Results returns the current net result set — every alive tuple,
// decanonicalized — sorted by (LeftID, RightID). This is the set a fresh
// engine run over the current base relations must produce.
func (ls *LiveSpace) Results() []smj.Result {
	var out []smj.Result
	for _, c := range ls.cellList {
		for _, e := range c.buf.ts {
			t := e.p
			out = append(out, smj.Result{
				LeftID:  t.leftID,
				RightID: t.rightID,
				Out:     smj.Decanonicalize(ls.pref, slices.Clone(t.v)),
			})
		}
	}
	slices.SortFunc(out, func(a, b smj.Result) int {
		if c := cmp.Compare(a.LeftID, b.LeftID); c != 0 {
			return c
		}
		return cmp.Compare(a.RightID, b.RightID)
	})
	return out
}
