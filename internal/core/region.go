package core

import (
	"fmt"
	"math"
	"slices"

	"progxe/internal/core/sched"
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
// least one join result — read off the right side's key directory, one probe
// per left tuple for all of its partition's pairs — so a kept pair is
// guaranteed populated and carries its exact join cardinality. Their output
// enclosures come from interval propagation: the region candidates before
// domination pruning, left partition outer, right partition inner.
func pairRegions(left, right []*inputPartition, maps *mapping.Set) []*region {
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
			all = append(all, &region{
				id:       len(all),
				a:        a,
				b:        b,
				rect:     maps.MapRegion(a.rect, b.rect),
				joinCard: card[bi],
				state:    regionLive,
			})
		}
	}
	return all
}

// prunedRegions marks every candidate region whose enclosure is dominated
// by another candidate's enclosure: X is eliminated if some
// guaranteed-populated region's UPPER point dominates LOWER(X) (Example 2).
// Pruning by a region that is itself pruned stays sound: the domination
// relation over enclosures is a strict partial order and chains down to a
// surviving witness region. The verdicts are read off the frontier of the
// candidates' upper corners (grid.Frontier), which is returned with them: a
// pruned region's upper corner is never Pareto-minimal, so the same frontier
// serves buildSpace's static cell marking over the survivors.
func prunedRegions(all []*region) ([]bool, *grid.Frontier) {
	front := grid.NewFrontier(regionRects(all))
	dominated := make([]bool, len(all))
	for i, r := range all {
		dominated[i] = front.Dominates(r.rect.Lower)
	}
	return dominated, front
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
// applies region-level domination pruning (Output Space Look-Ahead step 1).
// The returned regions are live; pruned is the count eliminated before any
// tuple work; front is the upper-corner frontier buildSpace marks cells
// with. Pairing reports to the profiler as region-build, pruning as prune (a
// nil profiler costs two no-op calls).
func buildRegions(left, right []*inputPartition, maps *mapping.Set, prof *obs.Profiler) (regions []*region, pruned int, front *grid.Frontier) {
	t0 := prof.Clock()
	all := pairRegions(left, right, maps)
	prof.EndSequencer(obs.PhaseRegionBuild, t0)
	t1 := prof.Clock()
	dominated, front := prunedRegions(all)
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
	return regions, pruned, front
}

// buildSpace lays the output grid over the union of the live regions'
// enclosures, computes cell coverage and RegCounts, applies static cell
// marking (Example 3), and initializes the Dom/Dependent counters. A
// region's covered cells are the full coordinate box minC..maxC, listed in
// ascending flat order (grid.BoxCells); nothing else records coverage —
// "does r cover c" is the box test (see remainingExcluding). Cells are
// created straight into the index's flat-id table. Static marking asks front
// — the frontier of the plan's candidate upper corners, which is also the
// frontier of the live regions' — one question per cell. The per-region
// coverage enumeration and the per-cell marking verdicts fan out across
// workers — both write only region-local (resp. index-local) state — while
// cell creation and the mark sweep stay serial and in deterministic order,
// so the built space is identical for any worker count.
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
	s := &space{d: d, g: g, stats: stats}
	s.idx.init(g)

	// Coverage: which regions can deposit tuples into which cells. Each
	// region's coordinate box and cell list depend only on the region; the
	// boxes are sized first so that every list is carved out of one array.
	corners := make([]int, 2*d*len(regions))
	volume := make([]int, len(regions))
	par.For(len(regions), workers, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			r, at := regions[ri], 2*d*ri
			r.minC, r.maxC = corners[at:at+d:at+d], corners[at+d:at+2*d:at+2*d]
			volume[ri] = g.CellBox(r.rect, r.minC, r.maxC)
		}
	})
	total := 0
	for _, n := range volume {
		total += n
	}
	lists := make([]int, total)
	for ri, r := range regions {
		r.cells, lists = lists[:0:volume[ri]], lists[volume[ri]:]
	}
	par.For(len(regions), workers, func(lo, hi int) {
		for _, r := range regions[lo:hi] {
			r.cells = g.BoxCells(r.minC, r.maxC, r.cells)
		}
	})
	created := 0
	for _, r := range regions {
		for _, flat := range r.cells {
			c := s.cellAt(flat)
			if c == nil {
				c = s.addCell(flat)
				created++
			}
			c.regCount++
		}
	}
	s.cellList = make([]*cell, 0, created)
	for _, c := range s.idx.dense {
		if c != nil {
			s.cellList = append(s.cellList, c)
		}
	}
	s.idx.all = s.cellList
	s.arena.d = d

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

// addCell creates the covered cell with the given flat id and registers it
// with the index.
func (s *space) addCell(flat int) *cell {
	coords := make([]int, s.d)
	s.g.Coords(flat, coords)
	lower := make([]float64, s.d)
	s.g.CellLower(coords, lower)
	c := &cell{flat: flat, coords: coords, lower: lower, activeIdx: -1}
	s.idx.add(c)
	return c
}

// buildActiveTree installs the cumulative active-cell tree behind
// progCount's orthant queries, mirroring the current active set.
// Maintaining the tree costs one point update per later finalization, so
// construction is deferred until the first progCount call that actually
// exceeds the scan budget (see progCount) — runs whose regions stay small
// never pay for it. The tree has one int32 per output cell, within
// grid.MaxCells like the grid itself.
func (s *space) buildActiveTree() {
	fen, err := grid.NewFenwick(s.dims())
	if err != nil {
		panic(err) // unreachable: the output grid passed the same bound
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
// so the choice cannot affect ranks or schedules. The tree earns its place
// on the paper's figures: no benchmark workload builds it, but Figs 10–13
// build it 30 times, and scanning instead makes their ordered ProgXe runs
// 14% slower summed (1,749 → 1,989 ms) and ProgXe+ on Fig 10d at σ = 0.1
// go from ≈ 4 to 33 ms (2-vCPU host, two alternating runs).
const progCountScanBudget = 1 << 20

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
		if c := s.cellAt(flat); c.activeIdx >= 0 && c.regCount == 1 {
			solos = append(solos, c)
		}
	}
	s.soloScratch = solos[:0]
	count := 0
	if len(solos)*len(s.active) > progCountScanBudget {
		if s.fen == nil {
			s.buildActiveTree()
		}
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
	g := s.g
	for _, c := range solos {
		if c.marked {
			continue
		}
		free := true
		for _, q := range s.active {
			if q == c || !g.Leq(q.key, c.key) {
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
// cover the cell. r covers exactly the cells of its coordinate box.
func remainingExcluding(c *cell, r *region) int {
	n := c.regCount
	if r.state == regionLive && grid.LeqAll(r.minC, c.coords) && grid.LeqAll(c.coords, r.maxC) {
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
