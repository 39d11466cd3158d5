package core

import (
	"fmt"
	"math"
	"sort"

	"progxe/internal/core/sched"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/par"
	"progxe/internal/preference"
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
	rect grid.Rect       // output-space enclosure from interval propagation

	cells      []int // flat ids of covered output cells, ascending
	minC, maxC []int // coordinate box of the covered cells

	joinCard int // exact join cardinality |IRa ⋈ ITb| (σ·n_a·n_b in Eq. 4–5)
	state    regionState

	// EL-Graph membership, queueing, and edge release live in the
	// scheduler layer (internal/core/sched), keyed by region id.
	benefit float64
	cost    float64
	rank    float64 // Equation 8: Benefit / Cost, as of the last analyse
}

// pairRegions pairs the input partitions and keeps pairs that produce at
// least one join result — read off the right partition's key index, so a
// kept pair is guaranteed populated and carries its exact join cardinality
// — computing their output enclosures via interval propagation: the region
// candidates before domination pruning.
func pairRegions(left, right []*inputPartition, maps *mapping.Set) []*region {
	var all []*region
	for _, a := range left {
		for _, b := range right {
			card := b.keys.joinCardinality(a.tuples)
			if card == 0 {
				continue
			}
			all = append(all, &region{
				id:       len(all),
				a:        a,
				b:        b,
				rect:     maps.MapRegion(a.rect, b.rect),
				joinCard: card,
				state:    regionLive,
			})
		}
	}
	return all
}

// pruneOracle forces region pruning through the retained all-pairs scan
// instead of the box-index sweep; the differential tests flip it to pin
// that both paths keep and prune identical region sets (and therefore
// identical emission streams).
var pruneOracle = false

// prunedRegions marks every candidate region whose enclosure is dominated
// by another candidate's enclosure: X is eliminated if some
// guaranteed-populated region's UPPER point dominates LOWER(X) (Example 2).
// Pruning by a region that is itself pruned stays sound: the domination
// relation over enclosures is a strict partial order and chains down to a
// surviving witness region. The verdicts come from the shared output-space
// box index (grid.DominatedRects) in sub-quadratic time; the O(n²) scan is
// retained as the differential oracle and benchmark baseline, fanned out
// across workers. Both paths mark the same set, so the choice is invisible
// to the engine's output.
func prunedRegions(all []*region, workers int) []bool {
	rects := make([]grid.Rect, len(all))
	for i, r := range all {
		rects[i] = r.rect
	}
	if pruneOracle {
		return grid.DominatedRectsQuadratic(rects, workers)
	}
	return grid.DominatedRects(rects)
}

// buildRegions pairs the input partitions into candidate regions and
// applies region-level domination pruning (Output Space Look-Ahead step 1).
// The returned regions are live; pruned is the count eliminated before any
// tuple work. The verdict set is independent of the worker count.
func buildRegions(left, right []*inputPartition, maps *mapping.Set, workers int) (regions []*region, pruned int) {
	return buildRegionsProf(left, right, maps, workers, nil)
}

// buildRegionsProf is buildRegions with phase attribution: pairing reports
// as region-build, domination pruning as prune. A nil profiler costs
// nothing beyond two no-op calls.
func buildRegionsProf(left, right []*inputPartition, maps *mapping.Set, workers int, prof *obs.Profiler) (regions []*region, pruned int) {
	t0 := prof.Clock()
	all := pairRegions(left, right, maps)
	prof.EndSequencer(obs.PhaseRegionBuild, t0)
	t1 := prof.Clock()
	dominated := prunedRegions(all, workers)
	prof.EndSequencer(obs.PhasePrune, t1)
	for _, d := range dominated {
		if d {
			pruned++
		}
	}
	for i, r := range all {
		if !dominated[i] {
			regions = append(regions, r)
		}
	}
	// Renumber the survivors for compact ids.
	for i, r := range regions {
		r.id = i
	}
	return regions, pruned
}

// buildSpace lays the output grid over the union of the live regions'
// enclosures, computes cell coverage and RegCounts, applies static cell
// marking (Example 3), and initializes the Dom/Dependent counters. The
// per-region coverage enumeration and the per-cell static-marking verdicts
// fan out across workers — both write only region-local (resp. index-local)
// state — while cell creation and the mark sweep stay serial and in
// deterministic order, so the built space is identical for any worker
// count.
func buildSpace(regions []*region, d, outputCells int, stats *smj.Stats, workers int) (*space, error) {
	if len(regions) == 0 {
		return &space{d: d, cells: map[int]*cell{}, stats: stats}, nil
	}
	bounds := regions[0].rect
	for _, r := range regions[1:] {
		bounds = bounds.Union(r.rect)
	}
	gb, err := grid.NewBounds(bounds.Lower, bounds.Upper)
	if err != nil {
		return nil, fmt.Errorf("core: output bounds: %w", err)
	}
	g, err := grid.Uniform(gb, outputCells)
	if err != nil {
		return nil, fmt.Errorf("core: output grid: %w", err)
	}
	s := &space{d: d, g: g, cells: make(map[int]*cell), stats: stats}

	// Coverage: which regions can deposit tuples into which cells. Each
	// region's cell set and coordinate box depend only on the region, and
	// the covered set is a full coordinate box in ascending flat order, so
	// the box corners are the first and last flat ids.
	par.For(len(regions), workers, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			r := regions[ri]
			r.cells = g.CellsOverlapping(r.rect, r.cells[:0])
			sort.Ints(r.cells)
			r.minC = make([]int, d)
			r.maxC = make([]int, d)
			g.Coords(r.cells[0], r.minC)
			g.Coords(r.cells[len(r.cells)-1], r.maxC)
		}
	})
	for _, r := range regions {
		for _, flat := range r.cells {
			c := s.cells[flat]
			if c == nil {
				coords := make([]int, d)
				g.Coords(flat, coords)
				lower := make([]float64, d)
				g.CellLower(coords, lower)
				c = &cell{flat: flat, coords: coords, lower: lower, activeIdx: -1}
				s.cells[flat] = c
			}
			c.coveredBy = append(c.coveredBy, r.id)
			c.regCount++
		}
	}
	s.cellList = make([]*cell, 0, len(s.cells))
	for _, c := range s.cells {
		s.cellList = append(s.cellList, c)
	}
	sort.Slice(s.cellList, func(i, j int) bool { return s.cellList[i].flat < s.cellList[j].flat })
	for i, c := range s.cellList {
		c.seq = int32(i)
	}
	s.idx.init(g, s.cellList)
	s.arena.d = d

	// Static marking: cells whose LOWER point is dominated by the UPPER
	// point of any guaranteed-populated region are non-contributing. The
	// verdicts are computed in parallel; the marks are applied serially in
	// cell-list order so counters match the serial build exactly.
	staticMark := make([]bool, len(s.cellList))
	par.For(len(s.cellList), workers, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			c := s.cellList[ci]
			for _, r := range regions {
				if preference.DominatesMin(r.rect.Upper, c.lower) {
					staticMark[ci] = true
					break
				}
			}
		}
	})
	for ci, c := range s.cellList {
		if staticMark[ci] {
			s.mark(c)
		}
	}

	// Counted (unmarked-at-build) cells form the initial active set: until
	// they finalize they can block emission of cells above them — the
	// Dom/Dependent bookkeeping of §V in its amortized realization.
	for _, c := range s.cellList {
		c.counted = !c.marked
		if c.counted {
			c.activeIdx = len(s.active)
			s.active = append(s.active, c)
		}
	}
	return s, nil
}

// buildActiveTree installs the cumulative active-cell tree behind
// progCount's orthant queries, mirroring the current active set.
// Maintaining the tree costs one point update per later finalization, so
// construction is deferred until the first progCount call that actually
// exceeds the scan budget (see progCount) — runs whose regions stay small
// never pay for it. Eligibility is gated by fenCellLimit (the tree is
// sized by the grid's total cell count); on the (impossible under that
// cap) constructor failure the space stays in scan mode.
func (s *space) buildActiveTree() {
	s.fenEligible = false
	dims := make([]int, s.d)
	for i := range dims {
		dims[i] = s.g.CellsPerDim(i)
	}
	fen, err := grid.NewFenwick(dims)
	if err != nil {
		return
	}
	s.fen = fen
	for _, c := range s.active {
		s.fen.Add(c.coords, 1)
	}
	s.stats.FenwickUpdates += len(s.active)
}

// schedBoxes projects the regions' coordinate boxes into the scheduler
// layer's representation (aliasing, read-only).
func schedBoxes(regions []*region) []sched.Box {
	boxes := make([]sched.Box, len(regions))
	for i, r := range regions {
		boxes[i] = sched.Box{Min: r.minC, Max: r.maxC}
	}
	return boxes
}

// progCountScanBudget is the solos×active product above which progCount
// prefers the Fenwick orthant counts over the direct active-set scan. Both
// paths are exact — the dispatch trades constant factors, never fidelity —
// so the choice cannot affect ranks or schedules.
const progCountScanBudget = 1 << 20

// fenCellLimit caps the grid size the active-cell tree will mirror (int32
// per cell: 64 MiB at the cap). It deliberately exceeds denseLimit so the
// map-fallback index mode keeps bounded rankings; past it — the extreme
// tail of manual OutputCells choices — progCount stays an exact scan,
// consistent with that mode's documented speed-for-memory trade.
var fenCellLimit = 1 << 24

// progCount implements Definition 2 exactly: the number of the region's
// cells that can neither be eliminated nor have output dependencies on
// cells belonging to other still-unprocessed regions — the cells whose
// early output depends solely on this region's own tuple-level processing.
// Requires a live region.
//
// For a live region the candidate cells and the non-blocking active cells
// coincide: both are the region's "solo" cells — active cells covered by no
// other unprocessed region (RegCount 1). A candidate is counted when its
// closed lower orthant holds no active cell outside that solo set. Small
// instances answer that with a direct scan of the active set (early-exit on
// the first blocker); large ones through the cumulative active-cell
// Fenwick: retract the solos, and a candidate is free iff its orthant count
// reads zero. The retraction is restored before returning, so the tree
// stays the exact image of the active set.
func progCount(s *space, r *region) int {
	solos := s.soloScratch[:0]
	for _, flat := range r.cells {
		c := s.cellAt(flat)
		if c.activeIdx >= 0 && remainingExcluding(c, r) == 0 {
			solos = append(solos, c)
		}
	}
	s.soloScratch = solos[:0]
	count := 0
	if s.fenEligible && len(solos)*len(s.active) > progCountScanBudget {
		s.buildActiveTree()
	}
	if s.fen != nil && len(solos)*len(s.active) > progCountScanBudget {
		for _, c := range solos {
			s.fen.Add(c.coords, -1)
		}
		for _, c := range solos {
			if !c.marked && s.fen.Count(c.coords) == 0 {
				count++
			}
		}
		for _, c := range solos {
			s.fen.Add(c.coords, 1)
		}
		s.stats.FenwickUpdates += 2 * len(solos)
		return count
	}
	packed := s.idx.packed
	for _, c := range solos {
		if c.marked {
			continue
		}
		free := true
		for _, q := range s.active {
			if q == c {
				continue
			}
			if packed {
				if !keyLeq(q.key, c.key) {
					continue
				}
			} else if !grid.LeqAll(q.coords, c.coords) {
				continue
			}
			if remainingExcluding(q, r) != 0 {
				free = false
				break
			}
		}
		if free {
			count++
		}
	}
	return count
}

// remainingExcluding returns how many unprocessed regions other than r still
// cover the cell.
func remainingExcluding(c *cell, r *region) int {
	n := c.regCount
	if r.state == regionLive && c.coveredByRegion(r.id) {
		n--
	}
	return n
}

// analyse recomputes the benefit (Eq. 2), cost (Eq. 7) and rank (Eq. 8) of a
// region — procedure analyse-Cost-vs-Benefit of Algorithm 1.
func analyse(s *space, r *region, d, outputCells int) {
	card := skyline.EstimateCardinality(float64(r.joinCard), d)
	pc := progCount(s, r)
	total := len(r.cells)
	if total == 0 {
		total = 1
	}
	r.benefit = float64(pc) / float64(total) * card
	r.cost = analyseCost(r, d, outputCells, total)
	r.rank = r.benefit / r.cost
}

// analyseCardinality is the RankCardinality benefit model: the region's
// estimated skyline cardinality stands in for the ProgCount-weighted
// benefit, over the unchanged Equation 7 cost. It reads only the region's
// construction-time quantities, so a refresh is O(1) and independent of the
// output space's current state.
func analyseCardinality(r *region, d, outputCells int) {
	r.benefit = skyline.EstimateCardinality(float64(r.joinCard), d)
	total := len(r.cells)
	if total == 0 {
		total = 1
	}
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
