package core

import (
	"cmp"
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
// (2) A dominator's coordinate sum is never larger than its victim's: it is
// all-≤ and floating-point addition rounds monotonically. In exact
// arithmetic the sum is strictly smaller, but rounding can erase the gap —
// (1e16, 0) dominates (1e16, 1) and both sum to 1e16 — so every cutoff on
// the sum-sorted cell buffers is tie-inclusive.
//
// Invariant (2) is why the initial build needs no eviction. Visit the mapped
// join in ascending (sum, seq) order and every dominator of a tuple has
// either been visited already or sits in the tuple's own run of equal sums:
// a tuple that no alive tuple and no later member of its run dominates can
// never be dominated by anything still to come, so it is appended to its
// cell's alive buffer and handed to the sink at once, final; a dominated one
// is appended to the dead buffer under the witness that beat it. Nothing is
// inserted mid-buffer, retracted or re-checked (sort-filter-skyline, the
// order the batch cells use too). Delete promotion walks its candidates in
// the same order for the same reason.

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

// liveCell is one populated output-space cell. The alive (skyline) and dead
// (dominated) populations live in separate buffers, each sorted ascending by
// (sum, seq): alive scans (dominance checks, eviction sweeps, promotion
// re-checks) never step over the dead majority, and dead scans (promotion
// candidate sweeps) never step over survivors. Componentwise min/max
// summaries over the alive buffer give O(d) scan refutation.
type liveCell struct {
	flat   int
	pos    int // index in LiveSpace.cellList
	coords []int
	minV   []float64 // over alive tuples; valid when len(alive) > 0
	maxV   []float64
	alive  []*liveTuple
	dead   []*liveTuple
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
// buffer, of the snapshot, and of delete promotion.
func byRank(a, b *liveTuple) int {
	if c := cmp.Compare(a.sum, b.sum); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// firstSumNotBelow returns the index of the first tuple in ts with sum ≥ s.
func firstSumNotBelow(ts []*liveTuple, s float64) int {
	at, _ := slices.BinarySearchFunc(ts, s, func(t *liveTuple, s float64) int { return cmp.Compare(t.sum, s) })
	return at
}

// insertByRank adds t to the (sum, seq)-sorted buffer ts.
func insertByRank(ts []*liveTuple, t *liveTuple) []*liveTuple {
	at, _ := slices.BinarySearchFunc(ts, t, byRank)
	return slices.Insert(ts, at, t)
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

// refresh recomputes the alive-subset summaries from scratch.
func (c *liveCell) refresh(d int) {
	for n, t := range c.alive {
		if n == 0 {
			copy(c.minV, t.v)
			copy(c.maxV, t.v)
			continue
		}
		for i := 0; i < d; i++ {
			c.minV[i] = math.Min(c.minV[i], t.v[i])
			c.maxV[i] = math.Max(c.maxV[i], t.v[i])
		}
	}
}

// widen grows the alive summaries to cover t (which must already be counted
// in c.alive).
func (c *liveCell) widen(t *liveTuple, d int) {
	if len(c.alive) == 1 {
		copy(c.minV, t.v)
		copy(c.maxV, t.v)
		return
	}
	for i := 0; i < d; i++ {
		c.minV[i] = math.Min(c.minV[i], t.v[i])
		c.maxV[i] = math.Max(c.maxV[i], t.v[i])
	}
}

// LiveSpace is the resident incremental-maintenance state for one query: the
// base relations, their join index, and the output-space cells holding every
// mapped tuple that has ever survived or been dominated.
//
// LiveSpace is not safe for concurrent use; the serve layer runs one
// goroutine per subscription.
type LiveSpace struct {
	pref *preference.Pareto // original orientation, for decanonicalization
	maps interface {
		Map(left, right, dst []float64) []float64
	} // canonical mapping set (HIGHEST dims pre-negated)
	d     int
	arity [2]int // attributes per base tuple, per side
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
func liveGridCells(d int) int {
	k := 16
	for k > 2 && math.Pow(float64(k), float64(d)) > 1<<12 {
		k--
	}
	return k
}

// NewLiveSpace builds the settled resident state for p: StageLive followed by
// the dominance pass with no sink. The initial net result set is available
// via Results or Snapshot.
func NewLiveSpace(p *smj.Problem) (*LiveSpace, error) {
	st, err := StageLive(p)
	if err != nil {
		return nil, err
	}
	return st.Build(nil), nil
}

// LiveStage is a LiveSpace whose base relations are registered and whose
// join is mapped, but whose tuples are not yet placed. Everything that can
// fail has happened by the time a stage exists, so a server can commit to a
// response before calling Build and stream the survivors as Build proves
// them.
type LiveStage struct {
	ls  *LiveSpace
	all []*liveTuple // every mapped join pair, in seq order
}

// StageLive validates p, registers both relations under ApplyInsert's checks
// (finite values, no duplicate ID on a side), maps the join once and bounds
// the output grid from the mapped outputs.
//
// The join is enumerated in the order a replay of the relations through
// ApplyInsert would take — left side first (no partners yet), then every
// right tuple in relation order against its left partners by ascending ID —
// so seq numbers, byBase lists and (in Build) cell creation order are exactly
// the replay's, and with them the retract order of every later apply.
func StageLive(p *smj.Problem) (*LiveStage, error) {
	cp, err := p.Canonicalized()
	if err != nil {
		return nil, err
	}
	ls := newLiveSpace(p, cp)
	d := ls.d
	left, right := cp.Left.Tuples, cp.Right.Tuples
	for s, ts := range [2][]relation.Tuple{left, right} {
		for _, t := range ts {
			if _, err := ls.register(mapping.Side(s), t); err != nil {
				return nil, err
			}
		}
	}

	// Left partners per join key, as indexes into left, by ascending ID.
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

	// The grid is bounded by the mapped outputs; min and max propagate NaN,
	// so a non-finite output fails setGrid.
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	// Each byBase list gets its own exactly sized allocation: a list carved
	// out of a shared backing array would keep the mapped tuples of a deleted
	// base tuple reachable for as long as any neighbour lives.
	all := make([]*liveTuple, 0, n)
	leftLists := make([][]*liveTuple, len(left))
	for _, rt := range right {
		ps := partners[rt.JoinKey]
		if len(ps) == 0 {
			continue
		}
		fanout := len(ls.byKey[mapping.Right][rt.JoinKey])
		mine := make([]*liveTuple, 0, len(ps))
		for _, li := range ps {
			lt := left[li]
			nt := &liveTuple{leftID: lt.ID, rightID: rt.ID, v: make([]float64, d), seq: int64(len(all))}
			ls.maps.Map(lt.Vals, rt.Vals, nt.v)
			for i, x := range nt.v {
				nt.sum += x
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

	if err := ls.setGrid(lo, hi); err != nil {
		return nil, err
	}
	return &LiveStage{ls: ls, all: all}, nil
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

// Build places every staged tuple and returns the settled space. Survivors
// are delivered to sink (which may be nil) in ascending (sum, seq) order, each
// the moment it is proven — see the file comment for why each is final. The
// stage must not be used again.
func (st *LiveStage) Build(sink LiveSink) *LiveSpace {
	ls, all := st.ls, st.all
	st.ls, st.all = nil, nil

	// Cells are created in seq order, as a replay would create them: an
	// eviction sweep retracts in cellList order.
	home := make([]*liveCell, len(all))
	for i, t := range all {
		home[i] = ls.cellFor(t.v)
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

	// last[c.pos] is the witness that most recently killed a tuple homed in
	// c. Neighbours in sum order tend to die to the same survivor, so it is
	// tried before the dominator cells are walked; nothing is evicted during
	// the pass, so it is still alive.
	last := make([]*liveTuple, len(ls.cellList))
	var orphans []*liveTuple // dead to a later member of their run; referee pending
	for i := 0; i < len(order); {
		j := runEnd(order, i)
		for x := i; x < j; x++ {
			t := order[x]
			c := home[t.seq]
			w := last[c.pos]
			if w == nil || !preference.DominatesMin(w.v, t.v) {
				w = ls.dominated(c, t.v, t.sum)
			}
			switch {
			case w != nil:
				attach(w, t)
				last[c.pos] = w
				c.dead = append(c.dead, t)
			case dominatedBy(order[x+1:j], t):
				orphans = append(orphans, t)
				c.dead = append(c.dead, t)
			default:
				t.alive = true
				c.alive = append(c.alive, t)
				c.widen(t, ls.d)
				ls.emit(t, sink)
			}
		}
		// The run's survivors are all alive now, and one of them dominates
		// each orphan: the top of its chain of dominators within the run.
		for _, t := range orphans {
			attach(ls.dominated(home[t.seq], t.v, t.sum), t)
		}
		orphans = orphans[:0]
		i = j
	}
	ls.stats = LiveStats{Results: ls.stats.Results} // the build is not feed work
	return ls
}

// linkCells builds the dom and vic lists of every cell at once. A cell's
// dominator cells fill the coordinate box between the origin and the cell,
// so walking that box through the flat cell table finds them without testing
// every pair of cells; the vic lists are the transpose, filled in cellList
// order — the order the lazy vicCells keeps, which eviction sweeps retract in.
func (ls *LiveSpace) linkCells() {
	at := make([]int, ls.d)
	vics := make([]int, len(ls.cellList))
	var box []*liveCell
	for _, c := range ls.cellList {
		box = box[:0]
		clear(at)
		for flat, dim := 0, 0; dim >= 0; {
			if n := ls.cells[flat]; n != nil {
				box = append(box, n)
				vics[n.pos]++
			}
			// Odometer step through the box, last dimension fastest.
			for dim = ls.d - 1; dim >= 0; dim-- {
				if at[dim] < c.coords[dim] {
					at[dim]++
					flat += ls.g.Stride(dim)
					break
				}
				flat -= at[dim] * ls.g.Stride(dim)
				at[dim] = 0
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

// Dims returns the output-space dimensionality.
func (ls *LiveSpace) Dims() int { return ls.d }

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
		flat:   flat,
		pos:    len(ls.cellList),
		coords: ls.g.Coords(flat, make([]int, ls.d)),
		minV:   make([]float64, ls.d),
		maxV:   make([]float64, ls.d),
	}
	ls.cells[flat] = c
	ls.cellList = append(ls.cellList, c)
	return c
}

// coordsLE reports a ≤ b componentwise.
func coordsLE(a, b []int) bool {
	for i, av := range a {
		if av > b[i] {
			return false
		}
	}
	return true
}

// domCells returns the cells where dominators of tuples in c can live (coords
// ≤ c's, including c itself), extending the cached list over cells created
// since it was last current.
func (ls *LiveSpace) domCells(c *liveCell) []*liveCell {
	for _, n := range ls.cellList[c.domN:] {
		if coordsLE(n.coords, c.coords) {
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
		if coordsLE(c.coords, n.coords) {
			c.vic = append(c.vic, n)
		}
	}
	c.vicN = len(ls.cellList)
	return c.vic
}

// dominated returns an alive tuple dominating canonical vector v (sum s,
// living in cell home), or nil — the witness becomes the referee when the
// caller demotes. Candidate cells are home's cached dominator cells; within a
// cell the alive-min summary refutes in O(d) and the sum-sorted buffer is
// scanned only while sums stay at or below s (a dominator's sum is never
// larger).
func (ls *LiveSpace) dominated(home *liveCell, v []float64, s float64) *liveTuple {
cells:
	for _, c := range ls.domCells(home) {
		if len(c.alive) == 0 {
			continue
		}
		for i := 0; i < ls.d; i++ {
			if c.minV[i] > v[i] {
				continue cells // no alive tuple here can be ≤ v everywhere
			}
		}
		for _, t := range c.alive {
			if t.sum > s {
				break
			}
			ls.stats.Comparisons++
			if preference.DominatesMin(t.v, v) {
				return t
			}
		}
	}
	return nil
}

// evict retracts every alive tuple the new tuple nt dominates, demoting each
// to dead with nt as referee; each victim's own dependents transfer to nt
// (transitivity keeps their referee a dominator). Victim cells are home's
// cached victim cells; within a cell the alive-max summary refutes and only
// tuples with sum ≥ nt.sum are candidates.
func (ls *LiveSpace) evict(home *liveCell, nt *liveTuple, sink LiveSink) {
	v, s := nt.v, nt.sum
cells:
	for _, c := range ls.vicCells(home) {
		if len(c.alive) == 0 {
			continue
		}
		for i := 0; i < ls.d; i++ {
			if v[i] > c.maxV[i] {
				continue cells // v exceeds every alive tuple here somewhere
			}
		}
		demoted := false
		for _, t := range c.alive[firstSumNotBelow(c.alive, s):] {
			ls.stats.Comparisons++
			if preference.DominatesMin(v, t.v) {
				t.alive = false
				demoted = true
				ls.retract(t, sink)
			}
		}
		if demoted {
			var victims []*liveTuple
			c.alive = slices.DeleteFunc(c.alive, func(t *liveTuple) bool {
				if t.alive {
					return false
				}
				victims = append(victims, t)
				return true
			})
			for _, t := range victims {
				for _, u := range t.deps {
					u.ref = nt
					u.refIdx = len(nt.deps)
					nt.deps = append(nt.deps, u)
				}
				t.deps = nil
				attach(nt, t)
				c.dead = insertByRank(c.dead, t)
			}
			c.refresh(ls.d)
		}
	}
}

// place routes one freshly mapped tuple through the insert protocol: it dies
// into its cell if dominated, otherwise it evicts its victims, joins the
// alive set, and is emitted.
func (ls *LiveSpace) place(t *liveTuple, sink LiveSink) {
	c := ls.cellFor(t.v)
	if w := ls.dominated(c, t.v, t.sum); w != nil {
		t.alive = false
		attach(w, t)
		c.dead = insertByRank(c.dead, t)
		return
	}
	ls.evict(c, t, sink)
	t.alive = true
	c.alive = insertByRank(c.alive, t)
	c.widen(t, ls.d)
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

// register validates base tuple t and makes it resident on side, returning
// the resident copy: values must match the side's arity and be finite, and
// a duplicate ID on the side is rejected.
func (ls *LiveSpace) register(side mapping.Side, t relation.Tuple) (relation.Tuple, error) {
	if len(t.Vals) != ls.arity[side] {
		return t, fmt.Errorf("live: tuple %d has %d values, the %v side has %d attributes", t.ID, len(t.Vals), side, ls.arity[side])
	}
	for _, v := range t.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return t, fmt.Errorf("live: non-finite value in tuple %d", t.ID)
		}
	}
	if _, dup := ls.base[side][t.ID]; dup {
		return t, fmt.Errorf("live: duplicate id %d on %v side", t.ID, side)
	}
	t.Vals = slices.Clone(t.Vals)
	ls.base[side][t.ID] = t
	ls.byKey[side][t.JoinKey] = append(ls.byKey[side][t.JoinKey], t.ID)
	return t, nil
}

// ApplyInsert adds base tuple t to side, maps it against every join partner
// on the opposite side, and routes each mapped output through the dominance
// protocol — emitting results for survivors and retracts for the tuples they
// evict. Values must be finite and match the side's arity; a duplicate ID on
// the side is rejected.
func (ls *LiveSpace) ApplyInsert(side mapping.Side, t relation.Tuple, sink LiveSink) error {
	if side != mapping.Left && side != mapping.Right {
		return fmt.Errorf("live: invalid side %d", side)
	}
	t, err := ls.register(side, t)
	if err != nil {
		return err
	}
	ls.stats.Inserts++

	other := mapping.Right - side
	partners := slices.Clone(ls.byKey[other][t.JoinKey])
	slices.Sort(partners) // deterministic mapping order
	for _, pid := range partners {
		p := ls.base[other][pid]
		lv, rv := t.Vals, p.Vals
		lid, rid := t.ID, p.ID
		if side == mapping.Right {
			lv, rv = p.Vals, t.Vals
			lid, rid = p.ID, t.ID
		}
		nt := &liveTuple{leftID: lid, rightID: rid, v: make([]float64, ls.d), seq: ls.nextSeq}
		ls.nextSeq++
		ls.maps.Map(lv, rv, nt.v)
		for _, v := range nt.v {
			nt.sum += v
		}
		ls.byBase[side][t.ID] = append(ls.byBase[side][t.ID], nt)
		ls.byBase[other][pid] = append(ls.byBase[other][pid], nt)
		ls.place(nt, sink)
	}
	return nil
}

// ApplyDelete removes the base tuple with the given ID from side. Every
// mapped tuple it participates in is withdrawn (alive ones retracted), and
// dead tuples whose referees were among the removed survivors are re-checked
// and promoted back into the result set when no alive dominator remains.
//
// Candidate completeness: a dead tuple needs promotion only if it lost its
// last alive dominator, and its referee is an alive dominator — so if the
// referee survived the delete, the tuple stays correctly dead, and otherwise
// it appears in a removed survivor's dependent list. Candidates are processed
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
	ids := ls.byKey[side][t.JoinKey]
	if i := slices.Index(ids, id); i >= 0 {
		ls.byKey[side][t.JoinKey] = slices.Delete(ids, i, i+1)
	}

	removed := ls.byBase[side][id]
	delete(ls.byBase[side], id)
	if len(removed) == 0 {
		return nil
	}
	gone := make(map[*liveTuple]bool, len(removed))
	var survivors []*liveTuple
	for _, mt := range removed {
		gone[mt] = true
		if mt.alive {
			survivors = append(survivors, mt)
			ls.retract(mt, sink)
		}
	}
	// Drop every removed mapped tuple from its cell and from the opposite
	// side's byBase lists.
	other := mapping.Right - side
	for _, mt := range removed {
		oid := mt.rightID
		if side == mapping.Right {
			oid = mt.leftID
		}
		lst := ls.byBase[other][oid]
		if i := slices.Index(lst, mt); i >= 0 {
			ls.byBase[other][oid] = slices.Delete(lst, i, i+1)
		}
	}
	touched := make(map[int]bool)
	for _, mt := range removed {
		c := ls.cells[ls.g.CellOf(mt.v)]
		if !touched[c.flat] {
			c.alive = slices.DeleteFunc(c.alive, func(x *liveTuple) bool { return gone[x] })
			c.dead = slices.DeleteFunc(c.dead, func(x *liveTuple) bool { return gone[x] })
			c.refresh(ls.d)
			touched[c.flat] = true
		}
	}

	// Detach removed dead tuples from surviving referees, then collect the
	// promotion candidates: each removed survivor's dependents. A dead
	// tuple has exactly one referee, so the lists are disjoint — no dedup.
	var cands []*liveTuple
	for _, mt := range removed {
		if !mt.alive && mt.ref != nil && !gone[mt.ref] {
			detach(mt)
		}
	}
	for _, r := range survivors {
		for _, u := range r.deps {
			if gone[u] {
				continue
			}
			u.ref = nil
			cands = append(cands, u)
		}
		r.deps = nil
	}
	slices.SortFunc(cands, byRank)
	var orphans []*liveTuple // dead to a later member of their run; referee pending
	for i := 0; i < len(cands); {
		j := runEnd(cands, i)
		for x := i; x < j; x++ {
			u := cands[x]
			c := ls.cells[ls.g.CellOf(u.v)]
			if w := ls.dominated(c, u.v, u.sum); w != nil {
				attach(w, u) // stays dead under a new referee
				continue
			}
			if dominatedBy(cands[x+1:j], u) {
				orphans = append(orphans, u)
				continue
			}
			u.alive = true
			ls.stats.Promotions++
			if at := slices.Index(c.dead, u); at >= 0 {
				c.dead = slices.Delete(c.dead, at, at+1)
			}
			c.alive = insertByRank(c.alive, u)
			c.widen(u, ls.d)
			ls.emit(u, sink)
		}
		for _, u := range orphans {
			attach(ls.dominated(ls.cells[ls.g.CellOf(u.v)], u.v, u.sum), u)
		}
		orphans = orphans[:0]
		i = j
	}
	return nil
}

// Results returns the current net result set — every alive tuple,
// decanonicalized — sorted by (LeftID, RightID). This is the set a fresh
// engine run over the current base relations must produce.
func (ls *LiveSpace) Results() []smj.Result {
	var out []smj.Result
	for _, c := range ls.cellList {
		for _, t := range c.alive {
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

// Snapshot delivers the current net result set to sink in ascending
// (sum, seq) order — the order Build delivers it in.
func (ls *LiveSpace) Snapshot(sink LiveSink) {
	var alive []*liveTuple
	for _, c := range ls.cellList {
		alive = append(alive, c.alive...)
	}
	slices.SortFunc(alive, byRank)
	for _, t := range alive {
		ls.emit(t, sink)
	}
}
