package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/par"
	"progxe/internal/skyline"
	"progxe/internal/smj"
)

// regionState tracks a region's lifecycle.
type regionState int8

const (
	regionLive      regionState = iota // awaiting tuple-level processing
	regionProcessed                    // tuple-level processing completed
	regionDiscarded                    // eliminated; never processed
)

// region is one output region R_{a,b}: the mapped image of an input
// partition pair guaranteed to produce at least one join result (§III-A).
type region struct {
	id   int
	a, b *inputPartition // a from Left, b from Right
	rect grid.Rect       // output-space enclosure of its join rows (enclosure)

	// minC..maxC is the inclusive coordinate box of the output cells the
	// region covers — its whole coverage: the region covers a cell iff the
	// cell lies in the box.
	minC, maxC []int

	joinCard int // exact join cardinality |IRa ⋈ ITb| (σ·n_a·n_b in Eq. 4–5)

	benefit float64
	cost    float64
	rank    float64 // Equation 8: Benefit / Cost, as of analyse
}

// ErrNonFiniteOutput marks the refusal of a join pair that maps to a NaN or
// infinite output, by prepare, by the live build and by a live insert.
var ErrNonFiniteOutput = errors.New("non-finite output")

// pairRegions pairs the input partitions and keeps pairs that produce at
// least one join result — read off the right side's key directory, one probe
// per left tuple for all of its partition's pairs — so a kept pair is
// guaranteed populated and carries its exact join cardinality and its
// output enclosure: the region candidates before domination pruning, left
// partition outer, right partition inner. A pair with a non-finite output
// is an error.
func pairRegions(left, right []*inputPartition, maps *mapping.Set) ([]*region, error) {
	dir := newKeyDirectory(right)
	card := make([]int, len(right))
	var all []*region
	for _, a := range left {
		clear(card)
		dir.addJoinCardinalities(a.jkeys, card)
		for bi, b := range right {
			if card[bi] == 0 {
				continue
			}
			rect, err := enclosure(a, b, maps)
			if err != nil {
				return nil, err
			}
			all = append(all, &region{id: len(all), a: a, b: b, rect: rect, joinCard: card[bi]})
		}
	}
	return all, nil
}

// enclosure returns a box every join row of a and b maps into: the interval
// image of the partitions' boxes when mapping.Set.Bounded holds over them,
// else — an interval proves nothing once a subexpression is not finite, as
// a NaN that MIN swallows shows — the exact box of the rows' outputs.
func enclosure(a, b *inputPartition, maps *mapping.Set) (grid.Rect, error) {
	if maps.Bounded(a.rect, b.rect) {
		return maps.MapRegion(a.rect, b.rect), nil
	}
	d := maps.Dims()
	box := grid.Rect{Lower: slices.Repeat([]float64{math.Inf(1)}, d), Upper: slices.Repeat([]float64{math.Inf(-1)}, d)}
	v := make([]float64, d)
	for li, key := range a.jkeys {
		lo, hi := b.keys.lookup(key)
		for ri := int(lo); ri < int(hi); ri++ {
			for _, x := range maps.Map(a.row(li), b.row(ri), v) {
				if x-x != 0 { // NaN, ±Inf
					return grid.Rect{}, fmt.Errorf("core: left tuple %d and right tuple %d map to a %w", a.ids[li], b.ids[ri], ErrNonFiniteOutput)
				}
			}
			box.Extend(grid.Rect{Lower: v, Upper: v})
		}
	}
	return box, nil
}

// regionRects lists the regions' enclosures.
func regionRects(all []*region) []grid.Rect {
	rects := make([]grid.Rect, len(all))
	for i, r := range all {
		rects[i] = r.rect
	}
	return rects
}

// buildRegions pairs the input partitions into candidate regions and
// applies region-level domination pruning (Output Space Look-Ahead step 1),
// failing on a pair with a non-finite output. The returned regions are live;
// pruned is the count eliminated before any tuple work; front is the
// upper-corner frontier buildSpace marks cells with. Pairing reports to the
// profiler as region-build, pruning as prune (a nil profiler costs two no-op
// calls).
func buildRegions(left, right []*inputPartition, maps *mapping.Set, prof *obs.Profiler) (regions []*region, pruned int, front *grid.Frontier, err error) {
	t0 := prof.Clock()
	all, err := pairRegions(left, right, maps)
	prof.EndSequencer(obs.PhaseRegionBuild, t0)
	if err != nil {
		return nil, 0, nil, err
	}
	t1 := prof.Clock()
	// A region X is eliminated if some guaranteed-populated region's UPPER
	// point dominates LOWER(X) (Example 2). Pruning by a region that is
	// itself pruned stays sound: domination over enclosures is a strict
	// partial order and chains down to a surviving witness. The frontier of
	// all upper corners is that of the survivors too, so buildSpace marks
	// cells with it.
	dominated, front := grid.DominatedRects(regionRects(all))
	prof.EndSequencer(obs.PhasePrune, t1)
	for i, r := range all {
		if dominated[i] {
			pruned++
			continue
		}
		// Renumber the survivors for compact ids.
		r.id = len(regions)
		regions = append(regions, r)
	}
	return regions, pruned, front, nil
}

// buildSpace lays the output grid over the union of the live regions'
// enclosures, creates the covered cells with their RegCounts, applies static
// cell marking (Example 3), and initializes the Dom/Dependent counters. A
// region covers exactly the cells of its coordinate box minC..maxC, and
// nothing else records coverage: the boxes' difference array (coverage)
// gives every cell its RegCount. Static marking asks front — the frontier of
// the plan's candidate upper corners, which is also the frontier of the live
// regions' — one question per cell. The boxes and the per-cell marking
// verdicts fan out across workers — both write only region-local (resp.
// cell-local) state — while cell creation and the mark sweep stay serial and
// in deterministic order, so the built space is identical for any worker
// count.
func buildSpace(regions []*region, front *grid.Frontier, d, outputCells int, stats *smj.Stats, workers int) (*space, error) {
	if len(regions) == 0 {
		return &space{d: d, stats: stats}, nil
	}
	bounds := grid.Rect{Lower: slices.Clone(regions[0].rect.Lower), Upper: slices.Clone(regions[0].rect.Upper)}
	for _, r := range regions[1:] {
		bounds.Extend(r.rect)
	}
	gb, err := grid.NewBounds(bounds.Lower, bounds.Upper)
	if err != nil {
		return nil, fmt.Errorf("core: output bounds: %w", err)
	}
	g, err := grid.Uniform(gb, outputCells)
	if err != nil {
		return nil, fmt.Errorf("core: output grid: %w", err)
	}
	corners := make([]int, 2*d*len(regions))
	par.For(len(regions), workers, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			r, at := regions[ri], 2*d*ri
			r.minC, r.maxC = corners[at:at+d:at+d], corners[at+d:at+2*d:at+2*d]
			g.CellBox(r.rect, r.minC, r.maxC)
		}
	})
	s := newSpace(g, stats)
	s.addCells(coverage(g, regions))

	// Static marking: cells whose LOWER point is dominated by the UPPER
	// point of any guaranteed-populated region are non-contributing. The
	// verdicts are computed in parallel; the marks are applied serially in
	// cell-list order so counters match the serial build exactly.
	staticMark := make([]bool, len(s.cellList))
	par.For(len(s.cellList), workers, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			staticMark[ci] = front.Dominates(s.cellList[ci].lower)
		}
	})
	for ci, c := range s.cellList {
		if staticMark[ci] {
			s.mark(c)
		}
	}
	s.activate()
	return s, nil
}

// newSpace returns an empty output space over g.
func newSpace(g *grid.Grid, stats *smj.Stats) *space {
	s := &space{d: g.Dims(), g: g, stats: stats, arena: vecArena{d: g.Dims()}}
	s.idx.init(g)
	return s
}

// cover is one cell's entry in the coverage table: how many regions' boxes
// hold the cell, and the sum of those regions' ids — with one covering
// region, its id. Both add up in wrapping int32 arithmetic, which is exact
// for the count and, when the count is one, for the id.
type cover struct{ n, ids int32 }

// coverage returns the coverage table of the regions' boxes, indexed by
// flat cell. Each box enters a d-dimensional difference array — (1, id) at
// its lower corner and at each corner that steps one past its upper edge in
// some dimensions, negated once per such step — and one orthant prefix sum
// turns the differences into per-cell totals: O(regions·2^d + d·cells)
// instead of a walk over every box. A corner past the grid's top edge is
// dropped (no prefix sum carries it back into the grid), and a box with
// more corners inside the grid than cells — a small box in many dimensions
// — adds its cells directly after the sum.
func coverage(g *grid.Grid, regions []*region) []cover {
	tab := make([]cover, g.NumCells())
	var direct []*region
	step := make([]int, g.Dims())
	for _, r := range regions {
		open := 0 // dimensions whose one-past-upper corner lies inside the grid
		for i, hi := range r.maxC {
			if hi+1 < g.CellsPerDim(i) {
				step[open] = (hi + 1 - r.minC[i]) * g.Stride(i)
				open++
			}
		}
		if 1<<open > grid.BoxVolume(r.minC, r.maxC) {
			direct = append(direct, r)
			continue
		}
		base, id := g.Flat(r.minC), int32(r.id)
		for mask := 0; mask < 1<<open; mask++ {
			flat, sign := base, int32(1)
			for j := range open {
				if mask>>j&1 == 1 {
					flat += step[j]
					sign = -sign
				}
			}
			tab[flat].n += sign
			tab[flat].ids += sign * id
		}
	}
	orthantScan(g, tab, func(into *cover, from cover) {
		into.n += from.n
		into.ids += from.ids
	})
	for _, r := range direct {
		for flat := range g.Box(r.minC, r.maxC) {
			tab[flat].n++
			tab[flat].ids += int32(r.id)
		}
	}
	return tab
}

// orthantScan folds every entry of a flat table over g with the entries of
// its closed lower orthant: one pass per dimension, each joining a cell's
// predecessor along it into the cell. Row-major order visits the
// predecessor first, so after pass i every entry holds the join over its
// orthant in dimensions 0..i.
func orthantScan[T any](g *grid.Grid, tab []T, join func(into *T, from T)) {
	for i := range g.Dims() {
		stride := g.Stride(i)
		span := stride * g.CellsPerDim(i)
		for base := 0; base < len(tab); base += span {
			for f := base + stride; f < base+span; f++ {
				join(&tab[f], tab[f-stride])
			}
		}
	}
}

// addCells creates every cell the coverage table counts, in ascending flat
// order, out of one slab of cells and one each of coordinates and corners,
// with its RegCount and — when one region covers it — that region's id.
func (s *space) addCells(tab []cover) {
	n := 0
	for _, cv := range tab {
		if cv.n > 0 {
			n++
		}
	}
	d := s.d
	cells := make([]cell, n)
	coords := make([]int, n*d)
	lowers := make([]float64, n*d)
	s.cellList = make([]*cell, n)
	k := 0
	for flat, cv := range tab {
		if cv.n == 0 {
			continue
		}
		at := k * d
		c := &cells[k]
		*c = cell{
			flat:      flat,
			coords:    s.g.Coords(flat, coords[at:at+d:at+d]),
			regCount:  int(cv.n),
			owner:     cv.ids,
			activeIdx: -1,
			pendIdx:   -1,
		}
		c.lower = s.g.CellLower(c.coords, lowers[at:at+d:at+d])
		s.idx.add(c)
		s.cellList[k] = c
		k++
	}
	s.idx.all = s.cellList
}

// activate makes the counted cells — those unmarked at build — the initial
// active set: until they finalize they can block emission of cells above
// them, the Dom/Dependent bookkeeping of §V in its amortized realization.
func (s *space) activate() {
	for _, c := range s.cellList {
		c.counted = !c.marked
		if c.counted {
			c.activeIdx = len(s.active)
			s.active = append(s.active, c)
		}
	}
}

// progCounts returns every region's progCount — Definition 2: the number of
// its cells whose early output depends on its own tuple-level processing
// alone — in the space's build state, from one pass over the output grid.
// Those cells are the region's solo cells (active, covered by it alone)
// whose closed lower orthant holds no active cell that awaits another
// region, i.e. every active cell there is a solo cell of the same region.
// Each active cell is tagged with the range [owner, owner] when solo and
// [−1, MaxInt32] when shared, the empty range elsewhere; after an orthant
// scan of range unions, a solo cell counts iff its range is one point.
func progCounts(s *space, regions int) []int {
	type span struct{ lo, hi int32 }
	tags := make([]span, s.g.NumCells())
	for i := range tags {
		tags[i] = span{math.MaxInt32, -1}
	}
	for _, c := range s.active {
		if c.regCount == 1 {
			tags[c.flat] = span{c.owner, c.owner}
		} else {
			tags[c.flat] = span{-1, math.MaxInt32}
		}
	}
	orthantScan(s.g, tags, func(into *span, from span) {
		into.lo = min(into.lo, from.lo)
		into.hi = max(into.hi, from.hi)
	})
	counts := make([]int, regions)
	for _, c := range s.active {
		if t := tags[c.flat]; c.regCount == 1 && t.lo == t.hi {
			counts[c.owner]++
		}
	}
	return counts
}

// analyse computes the benefit (Eq. 2), cost (Eq. 7) and rank (Eq. 8) of a
// region with the given progCount — procedure analyse-Cost-vs-Benefit of
// Algorithm 1.
func analyse(r *region, progCount, d, outputCells int) {
	card := skyline.EstimateCardinality(float64(r.joinCard), d)
	total := grid.BoxVolume(r.minC, r.maxC)
	r.benefit = float64(progCount) / float64(total) * card
	r.cost = analyseCost(r, d, outputCells, total)
	r.rank = r.benefit / r.cost
}

// analyseCost is the cost model, Equation 7. CPavg follows §IV-C's k·d
// comparable partitions; savg is the expected occupancy of a populated cell.
func analyseCost(r *region, d, outputCells, totalCells int) float64 {
	nanb := float64(r.a.len()) * float64(r.b.len())
	jc := float64(r.joinCard)
	cp := float64(outputCells * d)
	savg := jc / float64(totalCells)
	if savg < 1 {
		savg = 1
	}
	work := cp * savg
	alpha := skyline.KungAlpha(d)
	logTerm := 1.0
	if work > 1 {
		logTerm = math.Pow(math.Log2(work), alpha)
	}
	cost := nanb + jc + jc*work*logTerm
	if cost <= 0 {
		cost = 1
	}
	return cost
}
