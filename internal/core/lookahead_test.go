package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/join"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// This file holds one oracle per look-ahead pass that has a faster
// realization in the engine — static cell marking, the kd split's leaves,
// box coverage, region pairing, the Line 9 sweep — plus the
// fine_lookahead-shaped micro-benchmarks and the growth guard of the
// frontier's dominance tests. The oracles are the plain loops the passes
// replaced; they live here and nowhere else.

// fineOpts and fineProblem are the benchmark's fine_lookahead shape:
// anti-correlated d=3 with kd partitions, InputCells⁶ ≈ 4K candidate regions
// at InputCells 4.
var fineOpts = Options{Partitioning: PartitionKD, InputCells: 4}

func fineProblem(tb testing.TB, n int) *smj.Problem {
	return smokeProblem(tb, n, 3, datagen.AntiCorrelated, 0.001, 3)
}

func preparePlan(tb testing.TB, p *smj.Problem, opts Options) *Prepared {
	tb.Helper()
	pl, err := New(opts).PrepareContext(context.Background(), p)
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

// planSpace materializes the plan's regions and builds their output space.
func planSpace(tb testing.TB, pl *Prepared, outCells, workers int) ([]*region, *space, smj.Stats) {
	tb.Helper()
	if outCells == 0 {
		outCells = autoOutputCells(pl.d)
	}
	var stats smj.Stats
	regions := pl.materialize()
	s, err := buildSpace(regions, pl.frontier, pl.d, outCells, &stats, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return regions, s, stats
}

// lookAheadShapes are the randomized plans the coverage and marking oracles
// sweep: every distribution, grid and kd partitions, d = 2…4, coarse and
// fine output grids.
var lookAheadShapes = []struct {
	name     string
	n, d     int
	dist     datagen.Distribution
	seed     uint64
	opts     Options
	outCells int
}{
	{"anti d=3 kd", 600, 3, datagen.AntiCorrelated, 5, Options{Partitioning: PartitionKD, InputCells: 3}, 0},
	{"indep d=4", 500, 4, datagen.Independent, 6, Options{InputCells: 3}, 0},
	{"corr d=2 kd", 700, 2, datagen.Correlated, 7, Options{Partitioning: PartitionKD, InputCells: 4}, 0},
	{"anti d=2 fine grid", 500, 2, datagen.AntiCorrelated, 8, Options{InputCells: 5}, 48},
	{"corr d=3 coarse", 500, 3, datagen.Correlated, 9, Options{InputCells: 3}, 5},
}

func forEachLookAheadShape(t *testing.T, fn func(t *testing.T, pl *Prepared, outCells int)) {
	for _, sh := range lookAheadShapes {
		t.Run(sh.name, func(t *testing.T) {
			fn(t, preparePlan(t, smokeProblem(t, sh.n, sh.d, sh.dist, 0.02, sh.seed), sh.opts), sh.outCells)
		})
	}
}

// staticMarksQuadratic is static cell marking as a plain loop: a cell is
// non-contributing iff the UPPER corner of some region dominates its LOWER.
func staticMarksQuadratic(s *space, regions []*region) []bool {
	marks := make([]bool, len(s.cellList))
	for ci, c := range s.cellList {
		for _, r := range regions {
			if preference.DominatesMin(r.rect.Upper, c.lower) {
				marks[ci] = true
				break
			}
		}
	}
	return marks
}

func requireStaticMarks(t *testing.T, label string, s *space, regions []*region, stats smj.Stats) int {
	t.Helper()
	marked := 0
	for ci, want := range staticMarksQuadratic(s, regions) {
		c := s.cellList[ci]
		if c.marked != want {
			t.Fatalf("%s: cell %d (lower %v) marked=%v, cells × regions loop says %v", label, c.flat, c.lower, c.marked, want)
		}
		if want {
			marked++
		}
	}
	if stats.CellsMarked != marked {
		t.Fatalf("%s: CellsMarked = %d, %d cells are marked", label, stats.CellsMarked, marked)
	}
	return marked
}

// TestStaticMarksMatchQuadratic: the frontier marks exactly the cells the
// cells × regions loop marks, for any worker count, although it was built
// over the candidates and the loop runs over the survivors.
func TestStaticMarksMatchQuadratic(t *testing.T) {
	forEachLookAheadShape(t, func(t *testing.T, pl *Prepared, outCells int) {
		total := 0
		for _, workers := range []int{0, 4} {
			regions, s, stats := planSpace(t, pl, outCells, workers)
			total += requireStaticMarks(t, fmt.Sprintf("workers=%d", workers), s, regions, stats)
		}
		if total == 0 {
			t.Fatal("fixture marks nothing; the check is vacuous")
		}
	})
}

// TestStaticMarkAtCellBoundary puts an UPPER corner exactly on a cell
// corner: the cell whose LOWER equals it has no strict dimension and stays,
// its neighbours above are marked.
func TestStaticMarkAtCellBoundary(t *testing.T) {
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{2, 2}),
		mkPart(1, []float64{0, 2}, []float64{3, 8}),
		mkPart(2, []float64{2, 0}, []float64{8, 3}),
	}
	right := []*inputPartition{mkPart(3, []float64{0, 0}, []float64{0, 0})}
	regions, pruned, front := buildRegions(left, right, sumMaps2(), nil)
	if pruned != 0 || len(regions) != 3 {
		t.Fatalf("pruned=%d regions=%d, want 0/3", pruned, len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 8, &stats, 0) // [0,8]², unit cells
	if err != nil {
		t.Fatal(err)
	}
	requireStaticMarks(t, "boundary", s, regions, stats)
	at := func(x, y int) *cell { return s.cellAt(s.g.Flat([]int{x, y})) }
	if c := at(2, 2); c == nil || c.marked {
		t.Fatalf("cell (2,2), LOWER equal to an UPPER corner, must exist unmarked: %+v", c)
	}
	for _, xy := range [][2]int{{2, 3}, {3, 2}, {2, 7}, {7, 2}} {
		if c := at(xy[0], xy[1]); c == nil || !c.marked {
			t.Fatalf("cell %v lies above UPPER (2,2) with a strict dimension and must be marked: %+v", xy, c)
		}
	}
	if c := at(1, 2); c == nil || c.marked {
		t.Fatalf("cell (1,2) is below UPPER (2,2) in x and must stay: %+v", c)
	}
}

// TestBoxCoverageMatchesCellLists: the coverage table — a difference array
// over the regions' boxes — creates exactly the cells that listing every
// box's cells finds, in ascending flat order, each with the number of lists
// that hold it as its RegCount and, when one list holds it, that region's id.
func TestBoxCoverageMatchesCellLists(t *testing.T) {
	forEachLookAheadShape(t, func(t *testing.T, pl *Prepared, outCells int) {
		regions, s, _ := planSpace(t, pl, outCells, 0)
		covering, owner := make(map[int]int), make(map[int]int)
		for _, r := range regions {
			for _, flat := range boxCells(s.g, r) {
				covering[flat]++
				owner[flat] = r.id
			}
		}
		if len(covering) != len(s.cellList) {
			t.Fatalf("%d cells created, %d covered", len(s.cellList), len(covering))
		}
		for i, c := range s.cellList {
			if c.regCount != covering[c.flat] || s.cellAt(c.flat) != c {
				t.Fatalf("cell %d: regCount %d (covered by %d)", c.flat, c.regCount, covering[c.flat])
			}
			if c.regCount == 1 && int(c.owner) != owner[c.flat] {
				t.Fatalf("cell %d: owner %d, covered by region %d alone", c.flat, c.owner, owner[c.flat])
			}
			if i > 0 && s.cellList[i-1].flat >= c.flat {
				t.Fatal("cell list not in ascending flat order")
			}
		}
	})
}

// kdLeavesStable is the kd split as a sort: sort.SliceStable by the split
// dimension at every level, the cut moved past values equal to the lower
// half's last. It returns the leaves' member indices (sorted on the last
// split dimension) — the partitioner selects instead and must find the same
// leaves.
func kdLeavesStable(rel *relation.Relation, used []int, maxParts int) [][]int {
	idx := make([]int, len(rel.Tuples))
	for i := range idx {
		idx[i] = i
	}
	var leaves [][]int
	var split func(members []int, budget int)
	split = func(members []int, budget int) {
		if budget <= 1 || len(members) <= 1 {
			leaves = append(leaves, members)
			return
		}
		bestDim, bestSpread := -1, -1.0
		for _, a := range used {
			lo, hi := rel.Tuples[members[0]].Vals[a], rel.Tuples[members[0]].Vals[a]
			for _, m := range members[1:] {
				lo, hi = min(lo, rel.Tuples[m].Vals[a]), max(hi, rel.Tuples[m].Vals[a])
			}
			if hi-lo > bestSpread {
				bestSpread, bestDim = hi-lo, a
			}
		}
		if bestSpread <= 0 {
			leaves = append(leaves, members)
			return
		}
		sort.SliceStable(members, func(i, j int) bool {
			return rel.Tuples[members[i]].Vals[bestDim] < rel.Tuples[members[j]].Vals[bestDim]
		})
		mid := len(members) / 2
		cut := mid
		for cut < len(members) && rel.Tuples[members[cut]].Vals[bestDim] == rel.Tuples[members[mid-1]].Vals[bestDim] {
			cut++
		}
		if cut >= len(members) {
			leaves = append(leaves, members)
			return
		}
		split(members[:cut], budget/2)
		split(members[cut:], budget-budget/2)
	}
	split(idx, maxParts)
	return leaves
}

// requireKDLeaves checks one side's kd partitioning against kdLeavesStable:
// the same number of leaves in the same order, each with the reference leaf's
// member set and bounding box, its members in ascending relation position
// (IDs are positions in these fixtures).
func requireKDLeaves(tb testing.TB, rel *relation.Relation, maps *mapping.Set, maxParts int) {
	tb.Helper()
	parts, err := partitionInputKD(rel, maps, mapping.Left, maxParts)
	if err != nil {
		tb.Fatal(err)
	}
	leaves := kdLeavesStable(rel, maps.UsedAttrs(mapping.Left), maxParts)
	if len(parts) != len(leaves) {
		tb.Fatalf("n=%d parts=%d: %d partitions, stable-sort reference has %d leaves", len(rel.Tuples), maxParts, len(parts), len(leaves))
	}
	total := 0
	for li, members := range leaves {
		slices.Sort(members)
		want := make([]int64, len(members))
		lo, hi := slices.Clone(rel.Tuples[members[0]].Vals), slices.Clone(rel.Tuples[members[0]].Vals)
		for i, m := range members {
			want[i] = rel.Tuples[m].ID
			for j, v := range rel.Tuples[m].Vals {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
		pt := parts[li]
		if !slices.Equal(pt.ids, want) {
			tb.Fatalf("n=%d parts=%d leaf %d: members %v, reference set in relation order %v", len(rel.Tuples), maxParts, li, pt.ids, want)
		}
		if !slices.Equal(pt.rect.Lower, lo) || !slices.Equal(pt.rect.Upper, hi) {
			tb.Fatalf("n=%d parts=%d leaf %d: rect %v, reference [%v %v]", len(rel.Tuples), maxParts, li, pt.rect, lo, hi)
		}
		for i := range pt.ids {
			if !pt.rect.Contains(pt.row(i)) {
				tb.Fatalf("n=%d parts=%d leaf %d: row %v outside rect %v", len(rel.Tuples), maxParts, li, pt.row(i), pt.rect)
			}
		}
		total += pt.len()
	}
	if total != len(rel.Tuples) {
		tb.Fatalf("n=%d parts=%d: leaves hold %d tuples", len(rel.Tuples), maxParts, total)
	}
}

// TestKDMemberOrderMatchesStableSort: splitting by selection yields the
// stable-sort split's leaves — same count and order, same member sets, same
// rects — with the members of a leaf in relation order, on duplicate-heavy
// values (the cut moves past equal ones), a constant dimension, ±0,
// continuous values, one long duplicated run, a split dimension that is all
// one value, and relations too small to split.
func TestKDMemberOrderMatchesStableSort(t *testing.T) {
	shapes := []struct {
		name string
		val  func(rng *rand.Rand, dim int) float64
	}{
		{"duplicate-heavy", func(rng *rand.Rand, _ int) float64 { return float64(rng.IntN(4)) }},
		{"constant dimension", func(rng *rand.Rand, dim int) float64 {
			if dim == 1 {
				return 7
			}
			return float64(rng.IntN(50))
		}},
		{"signed zeros", func(rng *rand.Rand, _ int) float64 {
			return []float64{0, -1 * 0.0, 1, -1}[rng.IntN(4)] * []float64{1, -1}[rng.IntN(2)]
		}},
		{"continuous", func(rng *rand.Rand, _ int) float64 { return rng.Float64() }},
		{"one duplicated run", func(rng *rand.Rand, dim int) float64 {
			if dim == 0 && rng.IntN(3) > 0 {
				return 0.5
			}
			return rng.Float64()
		}},
		// Dimension 0 is the widest but holds two values, nearly all of them
		// the larger: the first split's right side is empty or a sliver.
		{"all-equal split dimension", func(rng *rand.Rand, dim int) float64 {
			if dim == 0 && rng.IntN(200) > 0 {
				return 100
			}
			return float64(rng.IntN(3))
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(41, uint64(len(sh.name))))
			for trial := 0; trial < 28; trial++ {
				n := 1 + rng.IntN(900)
				if trial >= 25 {
					n = trial - 24 // 1, 2, 3
				}
				p := emptyProblem(t, n, 1) // two used attributes per side
				for i := range p.Left.Tuples {
					p.Left.Tuples[i].Vals = []float64{sh.val(rng, 0), sh.val(rng, 1)}
				}
				requireKDLeaves(t, p.Left, p.Maps, []int{2, 7, 16, 64}[rng.IntN(4)])
			}
		})
	}
}

// TestPairRegionsMatchesPerPairJoin: one pass over the left tuples through
// the side-wide key directory finds exactly the pairs, cardinalities and
// region order of joining every partition pair on its own — with duplicate
// keys, one hot key, disjoint key sets and empty partitions on either side.
func TestPairRegionsMatchesPerPairJoin(t *testing.T) {
	maps := mapping.MustSet(mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))})
	rng := rand.New(rand.NewPCG(5, 17))
	side := func(side mapping.Side, key func(*rand.Rand, int) int64) [][]relation.Tuple {
		members := make([][]relation.Tuple, 1+rng.IntN(6))
		id := int64(0)
		for i := range members {
			for n := rng.IntN(40) * rng.IntN(2); n > 0; n-- { // half the partitions are empty
				members[i] = append(members[i], relation.Tuple{ID: id, Vals: []float64{rng.Float64()}, JoinKey: key(rng, int(side))})
				id++
			}
		}
		return members
	}
	pairs := 0
	for _, shape := range keyShapes {
		for trial := 0; trial < 30; trial++ {
			lt, rt := side(mapping.Left, shape.key), side(mapping.Right, shape.key)
			left, right := testPartitions(mapping.Left, 1, lt...), testPartitions(mapping.Right, 1, rt...)
			type pair struct{ a, b, card int }
			var want []pair
			for ai, a := range lt {
				for bi, b := range rt {
					if card := join.Cardinality(a, b); card > 0 {
						want = append(want, pair{ai, bi, card})
					}
				}
			}
			var got []pair
			for i, r := range pairRegions(left, right, maps) {
				if r.id != i {
					t.Fatalf("%s trial %d: region %d has id %d", shape.name, trial, i, r.id)
				}
				if want := maps.MapRegion(r.a.rect, r.b.rect); !slices.Equal(r.rect.Lower, want.Lower) || !slices.Equal(r.rect.Upper, want.Upper) {
					t.Fatalf("%s trial %d: region %d enclosure %v, want %v", shape.name, trial, i, r.rect, want)
				}
				got = append(got, pair{r.a.id, r.b.id, r.joinCard})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: pairRegions %v, per-pair join %v", shape.name, trial, got, want)
			}
			pairs += len(want)
		}
	}
	if pairs == 0 {
		t.Fatal("no trial paired anything")
	}
}

// emittingDiscards returns the largest number of regions one round of the
// trace discards while at least one of the discards releases a cell.
func emittingDiscards(events []Event) int {
	best, discards, emits := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventRegionChosen:
			if emits > 0 {
				best = max(best, discards)
			}
			discards, emits = 0, 0
		case EventRegionDiscarded:
			discards++
		case EventCellEmitted:
			if discards > 0 {
				emits++
			}
		}
	}
	return best
}

// TestDiscardSweepMatchesNaiveLoop pins the order contract of Line 9 on
// rounds that discard several regions whose cells then finalize and emit:
// the trace — discards in ascending region id, each followed by its
// cascade's emissions — is what the naive loop over every region produces,
// for the serial engine and (through the differential sweep) with workers.
func TestDiscardSweepMatchesNaiveLoop(t *testing.T) {
	for _, fx := range []struct {
		name string
		p    *smj.Problem
		opts Options
	}{
		{"corr d=3 kd", smokeProblem(t, 600, 3, datagen.Correlated, 0.02, 4), Options{Partitioning: PartitionKD, InputCells: 3}},
		{"indep d=4 grid", smokeProblem(t, 600, 4, datagen.Independent, 0.02, 11), Options{InputCells: 4}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			_, events, _ := runRecorded(t, fx.p, fx.opts)
			if n := emittingDiscards(events); n < 2 {
				t.Fatalf("fixture lost its point: no round discards ≥ 2 regions and emits (best %d)", n)
			}
			differentialCheck(t, fx.p, fx.opts)
		})
	}
}

// TestLookAheadDominanceTestsGrowSubquadratically is the growth guard of the
// two look-ahead dominance passes, with no clock in it: the frontier's
// DominatesMin calls for pruning (one probe per candidate LOWER) plus static
// marking (one per cell LOWER), counted at the fine_lookahead shape and at 4×
// the regions. All pairs would grow 16×; the guard fails at 8×.
func TestLookAheadDominanceTestsGrowSubquadratically(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares a 32K-row plan")
	}
	count := func(n, inputCells int) (regions, tests int) {
		opts := fineOpts
		opts.InputCells = inputCells
		pl := preparePlan(t, fineProblem(t, n), opts)
		all := pairRegions(pl.lparts, pl.rparts, pl.problem.Maps)
		for _, r := range all {
			_, k := pl.frontier.Probe(r.rect.Lower)
			tests += k
		}
		_, s, _ := planSpace(t, pl, 0, 0)
		for _, c := range s.cellList {
			_, k := pl.frontier.Probe(c.lower)
			tests += k
		}
		t.Logf("N=%d InputCells=%d: %d candidate regions, %d cells, frontier %d, %d dominance tests", n, inputCells, len(all), len(s.cellList), pl.frontier.Len(), tests)
		return len(all), tests
	}
	r1, t1 := count(10000, 4)
	r4, t4 := count(32000, 5)
	if r4 < 3*r1 {
		t.Fatalf("fixture: %d → %d regions is not the 4× step the guard is calibrated for", r1, r4)
	}
	if t4 >= 8*t1 {
		t.Fatalf("dominance tests grew %d → %d (%.1f×) for %.1f× the regions; want < 8×", t1, t4, float64(t4)/float64(t1), float64(r4)/float64(r1))
	}
}

// BenchmarkPrepareKD measures plan construction at the fine_lookahead shape:
// kd partitioning, key indexes, region pairing, frontier pruning.
func BenchmarkPrepareKD(b *testing.B) {
	p := fineProblem(b, 10000)
	e := New(fineOpts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PrepareContext(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSpace measures what every run of a cached fine_lookahead
// plan pays before its first tuple: region materialization, coverage, cell
// creation and static marking.
func BenchmarkBuildSpace(b *testing.B) {
	pl := preparePlan(b, fineProblem(b, 10000), fineOpts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSpace(b, pl, 0, 0)
	}
}

// BenchmarkRankRegions measures the region order of a cached fine_lookahead
// plan: the one-pass progCounts over the output grid, one analyse per region
// and the sort — what the first pick waits for after the space is built.
func BenchmarkRankRegions(b *testing.B) {
	pl := preparePlan(b, fineProblem(b, 10000), fineOpts)
	regions, s, _ := planSpace(b, pl, 0, 0)
	r := &runState{space: s, regions: regions, d: pl.d, outCells: autoOutputCells(pl.d)}
	b.ReportAllocs()
	for b.Loop() {
		r.rankOrder()
	}
}

// BenchmarkDiscardScan measures one Line 9 sweep over the live regions of a
// fine_lookahead plan, with a round of survivors that dominates nothing (a
// few regions' own UPPER corners: a corner that dominated a LOWER would have
// pruned it) — the common case, all scan and no cascade.
func BenchmarkDiscardScan(b *testing.B) {
	pl := preparePlan(b, fineProblem(b, 10000), fineOpts)
	regions := pl.materialize()
	r := &runState{regions: regions, d: pl.d, state: make([]regionState, len(regions))}
	r.trackLive()
	for i := 0; i < 8; i++ {
		r.roundNew = append(r.roundNew, regions[i*len(regions)/8].rect.Upper)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.discardDominated()
	}
	if len(r.live) != len(regions) {
		b.Fatalf("the sweep discarded %d regions", len(regions)-len(r.live))
	}
}
