package core

import (
	"testing"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// sumMaps2 is the 2-output mapping x = L0+R0, y = L1+R1 used throughout the
// running-example tests (the unweighted form of Fig. 3's arithmetic).
func sumMaps2() *mapping.Set {
	return mapping.MustSet(
		mapping.Func{Name: "tCost", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
		mapping.Func{Name: "delay", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
	)
}

// mkPart hand-builds an input partition with two corner tuples spanning the
// given box, all carrying join key 1 so that every pair is guaranteed to
// join (the "guaranteed populated" premise of §III-A). With one key its group
// order is its build order, so it keeps the key column beside the key index
// and can stand on either side of a region.
func mkPart(id int, lo, hi []float64) *inputPartition {
	p := testPartitions(mapping.Right, len(lo), []relation.Tuple{
		{ID: int64(id * 10), Vals: lo, JoinKey: 1},
		{ID: int64(id*10 + 1), Vals: hi, JoinKey: 1},
	})[0]
	p.id, p.jkeys = id, []int64{1, 1}
	return p
}

// TestExample2RegionElimination reproduces Example 2: a guaranteed-populated
// region whose UPPER point dominates another region's LOWER point eliminates
// it before any tuple-level work.
func TestExample2RegionElimination(t *testing.T) {
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{1, 1}),
		mkPart(1, []float64{3, 3}, []float64{5, 5}),
	}
	right := []*inputPartition{
		mkPart(2, []float64{0, 0}, []float64{1, 1}),
		mkPart(3, []float64{3, 3}, []float64{5, 5}),
	}
	regions, pruned, _, err := buildRegions(left, right, sumMaps2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Region (0,2) = [(0,0),(2,2)] dominates the other three pairs, whose
	// lower corners are (3,3), (3,3) and (6,6).
	if pruned != 3 {
		t.Fatalf("pruned %d regions, want 3", pruned)
	}
	if len(regions) != 1 {
		t.Fatalf("kept %d regions, want 1", len(regions))
	}
	r := regions[0]
	if r.rect.Lower[0] != 0 || r.rect.Upper[0] != 2 {
		t.Fatalf("surviving region = %v", r.rect)
	}
	if r.joinCard != 4 {
		t.Fatalf("join cardinality = %d, want 2×2", r.joinCard)
	}
}

// TestNoEliminationAtSharedBoundary checks the strictness requirement:
// UPPER(Y) equal to LOWER(X) in every dimension has no strict dimension and
// must not eliminate.
func TestNoEliminationAtSharedBoundary(t *testing.T) {
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{1, 1}),
		mkPart(1, []float64{1, 1}, []float64{2, 2}),
	}
	right := []*inputPartition{mkPart(2, []float64{1, 1}, []float64{1, 1})}
	regions, pruned, _, err := buildRegions(left, right, sumMaps2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Regions: [(1,1),(2,2)] and [(2,2),(3,3)] — upper of the first equals
	// lower of the second.
	if pruned != 1 || len(regions) != 1 {
		// Wait: UPPER (2,2) vs LOWER (2,2): ≤ everywhere but no strict
		// dimension — not dominated. Both must survive.
		if pruned != 0 || len(regions) != 2 {
			t.Fatalf("pruned=%d kept=%d, want 0/2", pruned, len(regions))
		}
	} else {
		t.Fatalf("boundary-touching region was wrongly eliminated")
	}
}

// TestExample3StaticCellMarking reproduces Example 3: output partitions of a
// region dominated by that region's own upper-bound point are marked
// non-contributing.
func TestExample3StaticCellMarking(t *testing.T) {
	// One region [(0,0),(4,4)]; a second region [(2,2),(8,8)] overlaps it
	// and extends into territory dominated by (4,4).
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{2, 2}),
		mkPart(1, []float64{1, 1}, []float64{4, 4}),
	}
	right := []*inputPartition{mkPart(2, []float64{0, 0}, []float64{2, 2})}
	maps := sumMaps2()
	regions, pruned, front, err := buildRegions(left, right, maps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 0 || len(regions) != 2 {
		t.Fatalf("pruned=%d regions=%d", pruned, len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 6, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CellsMarked == 0 {
		t.Fatal("no cells were statically marked")
	}
	// Every marked cell's lower corner must be dominated by some region's
	// upper point; every unmarked cell must not be.
	for _, c := range s.cellList {
		dominated := false
		for _, r := range regions {
			if preference.DominatesMin(r.rect.Upper, c.lower) {
				dominated = true
				break
			}
		}
		if dominated != c.marked {
			t.Fatalf("cell %v: dominated=%v marked=%v", c.coords, dominated, c.marked)
		}
	}
}

// TestCompleteElimination checks Fig. 6.a's complete-elimination condition.
func TestCompleteElimination(t *testing.T) {
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{3, 3}),
		mkPart(1, []float64{2.2, 2.2}, []float64{3, 3}),
	}
	right := []*inputPartition{mkPart(2, []float64{0, 0}, []float64{0.4, 0.4})}
	regions, _, front, err := buildRegions(left, right, sumMaps2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Skipf("expected 2 live regions, got %d", len(regions))
	}
	var stats smj.Stats
	if _, err := buildSpace(regions, front, 2, 10, &stats, 0); err != nil {
		t.Fatal(err)
	}
	// Complete elimination: minC(a) < minC(b) in every dimension.
	a, b := regions[0], regions[1]
	if !grid.StrictlyBelow(a.minC, b.minC) {
		t.Fatalf("region %v (cells %v-%v) must completely eliminate %v (cells %v-%v)",
			a.rect, a.minC, a.maxC, b.rect, b.minC, b.maxC)
	}
	if grid.StrictlyBelow(b.minC, a.minC) {
		t.Fatal("elimination cannot be mutual")
	}
}

// TestProgCountDefinition2 exercises Definition 2 directly: a region whose
// cells depend on another unprocessed region has a reduced count; once the
// other region is processed the count recovers.
func TestProgCountDefinition2(t *testing.T) {
	// Region A occupies the low corner alone; region B overlaps A's slice
	// shadow, so B's cells depend on A but not vice versa.
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{2, 2}),
		mkPart(1, []float64{2.5, 0}, []float64{5, 2}),
	}
	right := []*inputPartition{mkPart(2, []float64{0, 0}, []float64{0, 0})}
	maps := sumMaps2()
	regions, _, front, err := buildRegions(left, right, maps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 8, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := regions[0], regions[1]
	requireProgCounts(t, "before A", s, regions)
	pcA := progCount(s, a)
	pcB := progCount(s, b)
	if pcA == 0 {
		t.Fatal("independent low region must have positive ProgCount")
	}
	if vol := grid.BoxVolume(b.minC, b.maxC); pcB >= vol {
		t.Fatalf("dependent region reports full ProgCount %d of %d", pcB, vol)
	}
	// Simulate processing A: its cells finalize, dependencies clear.
	s.regionDone(a)
	pcB2 := progCount(s, b)
	if pcB2 < pcB {
		t.Fatalf("ProgCount(B) fell from %d to %d after clearing its dependency", pcB, pcB2)
	}
	if pcB2 != len(liveUnmarked(s, b)) {
		t.Fatalf("after A: ProgCount(B) = %d, want all %d live cells", pcB2, len(liveUnmarked(s, b)))
	}
}

func liveUnmarked(s *space, r *region) []int {
	var out []int
	for _, flat := range boxCells(s.g, r) {
		c := s.cellAt(flat)
		if !c.marked && !c.emitted && remainingExcluding(c, r) == 0 {
			out = append(out, flat)
		}
	}
	return out
}

// TestAnalyseRankOrdersByBenefitPerCost checks Equation 8's ordering on two
// regions with equal cost shape but different progressiveness.
func TestAnalyseRankOrdersByBenefitPerCost(t *testing.T) {
	left := []*inputPartition{
		mkPart(0, []float64{0, 0}, []float64{2, 2}),
		mkPart(1, []float64{2.5, 0}, []float64{5, 2}),
	}
	right := []*inputPartition{mkPart(2, []float64{0, 0}, []float64{0, 0})}
	regions, _, front, err := buildRegions(left, right, sumMaps2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 8, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := regions[0], regions[1]
	counts := progCounts(s, len(regions))
	analyse(a, counts[a.id], 2, 8)
	analyse(b, counts[b.id], 2, 8)
	if a.cost <= 0 || b.cost <= 0 {
		t.Fatal("costs must be positive")
	}
	if a.rank <= b.rank {
		t.Fatalf("free region must outrank dependent one: %g vs %g", a.rank, b.rank)
	}
}
