package core

import (
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/smj"
)

// progCountOracle is Definition 2 verbatim, with no index machinery: a cell
// of r counts iff it is unmarked, unemitted, covered by no other
// unprocessed region, and no active cell in its closed lower orthant still
// awaits tuples from a region other than r.
func progCountOracle(s *space, r *region) int {
	count := 0
	for _, flat := range r.cells {
		c := s.cellAt(flat)
		if c.marked || c.emitted || remainingExcluding(c, r) != 0 {
			continue
		}
		free := true
		for _, q := range s.active {
			if q != c && grid.LeqAll(q.coords, c.coords) && remainingExcluding(q, r) != 0 {
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

// TestProgCountExactOnLargeRegions checks progCount against the Definition
// 2 oracle on a space big enough that the seed's budgeted stride sampler
// would have engaged (cells×active beyond its 2²¹ budget) — the regime
// where sampling used to distort ranks — and asserts the Fenwick orthant
// path actually ran. The check repeats mid-run, after regions complete and
// cells finalize, so the retract-and-restore protocol is exercised against
// a mutated active set.
func TestProgCountExactOnLargeRegions(t *testing.T) {
	p := smokeProblem(t, 600, 2, datagen.AntiCorrelated, 0.05, 17)
	cp, d, err := checkProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{InputCells: 2, OutputCells: 64})
	lparts, err := e.partition(cp.Left, cp.Maps, mapping.Left)
	if err != nil {
		t.Fatal(err)
	}
	rparts, err := e.partition(cp.Right, cp.Maps, mapping.Right)
	if err != nil {
		t.Fatal(err)
	}
	regions, _, front := buildRegions(lparts, rparts, cp.Maps, nil)
	if len(regions) < 2 {
		t.Fatalf("fixture built only %d regions", len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, d, 64, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	strideRegime := false
	for _, r := range regions {
		if len(r.cells)*len(s.active) > 1<<21 {
			strideRegime = true
		}
	}
	if !strideRegime {
		t.Fatal("fixture too small: the seed's stride sampler would not have engaged")
	}

	check := func(stage string) {
		t.Helper()
		for _, r := range regions {
			if r.state != regionLive {
				continue
			}
			before := stats.FenwickUpdates
			got := progCount(s, r)
			usedFenwick := stats.FenwickUpdates != before
			if want := progCountOracle(s, r); got != want {
				t.Fatalf("%s: progCount(region %d) = %d, oracle %d (fenwick=%v)", stage, r.id, got, want, usedFenwick)
			}
		}
	}
	check("initial")

	fenwickBefore := stats.FenwickUpdates
	// Complete half the regions (no tuple work needed: progCount reads only
	// coverage and the active set) and re-verify against the mutated space.
	for i, r := range regions {
		if i%2 == 0 {
			r.state = regionProcessed
			s.regionDone(r.cells)
		}
	}
	check("mid-run")
	if s.fen == nil || stats.FenwickUpdates == fenwickBefore {
		t.Fatal("no progCount call took the Fenwick path; fixture lost its point")
	}
}
