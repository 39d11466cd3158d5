package core

import (
	"testing"

	"progxe/internal/smj"
)

// mkSpace builds a space over one region covering a 2-d box, giving direct
// access to the tuple-level protocol.
func mkSpace(t *testing.T, outputCells int) (*space, *region) {
	t.Helper()
	left := []*inputPartition{mkPart(0, []float64{0, 0}, []float64{5, 5})}
	right := []*inputPartition{mkPart(1, []float64{0, 0}, []float64{5, 5})}
	regions, pruned, front, err := buildRegions(left, right, sumMaps2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 0 || len(regions) != 1 {
		t.Fatalf("setup: pruned=%d regions=%d", pruned, len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, outputCells, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.emit = func(outTuple) {}
	return s, regions[0]
}

// insertVec drives the tuple-level protocol with a throwaway id pair.
func insertVec(s *space, c *cell, v ...float64) bool {
	_, ok := s.insert(c, 1, 1, v, sumOf(v))
	return ok
}

func TestInsertDominanceWithinCell(t *testing.T) {
	s, _ := mkSpace(t, 4)
	c := s.cellAt(s.g.CellOf([]float64{1, 1}))
	if !insertVec(s, c, 1, 1) {
		t.Fatal("first tuple must survive")
	}
	if insertVec(s, c, 1.2, 1.2) {
		t.Fatal("dominated tuple in same cell must be rejected")
	}
	if !insertVec(s, c, 0.5, 0.5) {
		t.Fatal("dominating tuple must survive")
	}
	if len(c.buf.ts) != 1 || c.buf.ts[0].v[0] != 0.5 {
		t.Fatalf("dominated survivor must be evicted: %v", c.buf.ts)
	}
}

func TestInsertTiesBothSurvive(t *testing.T) {
	s, _ := mkSpace(t, 4)
	c := s.cellAt(s.g.CellOf([]float64{2, 2}))
	if !insertVec(s, c, 2, 2) || !insertVec(s, c, 2, 2) {
		t.Fatal("equal tuples must both survive")
	}
	if len(c.buf.ts) != 2 {
		t.Fatalf("want 2 survivors, got %d", len(c.buf.ts))
	}
}

func TestPopulateMarksStrictUppers(t *testing.T) {
	s, _ := mkSpace(t, 4)
	// Insert into the second cell along each axis; cells strictly above in
	// both dimensions become non-contributing.
	p := []float64{3, 3}
	c := s.cellAt(s.g.CellOf(p))
	if !insertVec(s, c, p...) {
		t.Fatal("survivor expected")
	}
	marked := 0
	for _, q := range s.cellList {
		if q.marked {
			marked++
			// Marked cells must be strictly above c (the static pass
			// marked none: a single region's upper bound dominates only
			// cells outside its own lower region... verify dynamically
			// marked cells only).
			for i := range q.coords {
				if q.coords[i] <= c.coords[i] {
					t.Fatalf("marked cell %v not strictly above %v", q.coords, c.coords)
				}
			}
		}
	}
	if marked == 0 {
		t.Fatal("population must mark the strict upper orthant")
	}
	// Tuples aimed at marked cells are discarded without comparisons.
	mc := s.cellAt(s.g.CellOf([]float64{9, 9}))
	if !mc.marked {
		t.Skip("cell (9,9) not marked in this layout")
	}
	if insertVec(s, mc, 9, 9) {
		t.Fatal("insert into marked cell must be discarded")
	}
	if s.stats.MappedDiscarded == 0 {
		t.Fatal("discard must be counted")
	}
}

func TestInsertCrossCellEviction(t *testing.T) {
	s, _ := mkSpace(t, 8)
	// A tuple in a slice-below cell (same row) evicts dominated tuples in a
	// later cell.
	hi := s.cellAt(s.g.CellOf([]float64{8, 1}))
	if !insertVec(s, hi, 8, 1) {
		t.Fatal("survivor expected")
	}
	lo := s.cellAt(s.g.CellOf([]float64{2, 1}))
	if !insertVec(s, lo, 2, 1) {
		t.Fatal("dominating tuple must survive")
	}
	if len(hi.buf.ts) != 0 {
		t.Fatalf("dominated cross-cell tuple must be evicted: %v", hi.buf.ts)
	}
	// And the reverse: a dominated newcomer in a slice-above cell dies.
	if insertVec(s, hi, 8, 1) {
		t.Fatal("newcomer dominated from slice-below cell must be rejected")
	}
}

func TestFinalizeEmissionLifecycle(t *testing.T) {
	s, r := mkSpace(t, 4)
	var emitted []outTuple
	s.emit = func(t outTuple) { emitted = append(emitted, t) }
	c := s.cellAt(s.g.CellOf([]float64{0.5, 0.5}))
	if !insertVec(s, c, 0.5, 0.5) {
		t.Fatal("survivor expected")
	}
	if len(emitted) != 0 {
		t.Fatal("nothing may be emitted before finalization")
	}
	s.regionDone(r)
	if len(emitted) != 1 {
		t.Fatalf("finalizing the only region must emit the survivor, got %d", len(emitted))
	}
	if got := s.unemitted(); len(got) != 0 {
		t.Fatalf("unemitted leftovers: %d", len(got))
	}
	if s.stats.ResultCount != 1 {
		t.Fatalf("stats.ResultCount = %d", s.stats.ResultCount)
	}
}

func TestSliceBelowOrEqual(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 1}, []int{1, 1}, true},  // equal
		{[]int{1, 2}, []int{2, 2}, true},  // slice below
		{[]int{0, 0}, []int{1, 1}, false}, // strict orthant: excluded
		{[]int{2, 1}, []int{1, 2}, false}, // incomparable
		{[]int{2, 2}, []int{1, 2}, false}, // above
	}
	for _, c := range cases {
		if got := sliceBelowOrEqual(c.a, c.b); got != c.want {
			t.Errorf("sliceBelowOrEqual(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// TestBlockerPathsAgree pins findBlocker's two paths against each other: at
// every consider of a ProgDetermine drain over a fine_lookahead plan — every
// counted cell holding a survivor, the regions drained in rank order — the
// lower-box walk and the active-set scan return the same cell.
func TestBlockerPathsAgree(t *testing.T) {
	pl := preparePlan(t, fineProblem(t, 2000), fineOpts)
	regions, s, _ := planSpace(t, pl, 0, 1)
	s.emit = func(outTuple) {}
	for _, c := range s.active {
		c.buf.ts = []outTuple{{}}
	}
	coordsOf := func(c *cell) []int {
		if c == nil {
			return nil
		}
		return c.coords
	}
	var considers, blocked int
	consider := func(c *cell) {
		box, scan := s.firstActiveInLowerBox(c), s.firstActiveBelow(c)
		if box != scan {
			t.Fatalf("cell %v: the lower-box walk finds %v, the active-set scan %v", c.coords, coordsOf(box), coordsOf(scan))
		}
		considers++
		if box != nil {
			blocked++
		}
		s.consider(c)
	}
	order := (&runState{space: s, regions: regions, d: pl.d, outCells: autoOutputCells(pl.d)}).rankOrder()
	for _, id := range order {
		// regionDone and finalize, checking before every consider.
		r := regions[id]
		for flat := range s.g.Box(r.minC, r.maxC) {
			c := s.idx.dense[flat]
			if c.regCount--; c.regCount > 0 || c.finalized {
				continue
			}
			c.finalized = true
			s.deactivate(c)
			consider(c)
			watchers := c.watchers
			c.watchers = nil
			for _, w := range watchers {
				consider(w)
			}
		}
	}
	if left := s.unemitted(); len(left) > 0 {
		t.Fatalf("%d cells left unemitted", len(left))
	}
	if blocked == 0 || blocked == considers {
		t.Fatalf("%d of %d considers blocked: the drain does not exercise both answers", blocked, considers)
	}
	t.Logf("%d regions, %d considers, %d blocked", len(regions), considers, blocked)
}
