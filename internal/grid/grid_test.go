package grid

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func mustBounds(t *testing.T, lo, hi []float64) Bounds {
	t.Helper()
	b, err := NewBounds(lo, hi)
	if err != nil {
		t.Fatalf("NewBounds: %v", err)
	}
	return b
}

func mustGrid(t *testing.T, b Bounds, k int) *Grid {
	t.Helper()
	g, err := Uniform(b, k)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return g
}

func TestBoundsValidation(t *testing.T) {
	if _, err := NewBounds([]float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := NewBounds(nil, nil); err == nil {
		t.Fatal("empty bounds must error")
	}
	if _, err := NewBounds([]float64{2}, []float64{1}); err == nil {
		t.Fatal("inverted bounds must error")
	}
	b := mustBounds(t, []float64{5}, []float64{5})
	if b.Hi[0] <= b.Lo[0] {
		t.Fatal("degenerate dimension must be widened")
	}
}

func TestGridBasics(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0, 0}, []float64{10, 10}), 5)
	if g.NumCells() != 25 || g.Dims() != 2 || g.CellsPerDim(0) != 5 {
		t.Fatalf("grid shape wrong: %d cells", g.NumCells())
	}
	if _, err := New(mustBounds(t, []float64{0}, []float64{1}), []int{0}); err == nil {
		t.Fatal("zero cells must error")
	}
	if _, err := New(mustBounds(t, []float64{0}, []float64{1}), []int{1, 2}); err == nil {
		t.Fatal("cell count arity mismatch must error")
	}
}

func TestCellOfBoundaries(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0, 0}, []float64{10, 10}), 5)
	coords := make([]int, 2)
	// Interior point.
	g.Coords(g.CellOf([]float64{3.5, 7.2}), coords)
	if coords[0] != 1 || coords[1] != 3 {
		t.Fatalf("interior coords = %v", coords)
	}
	// Exact upper boundary clamps into the last cell.
	g.Coords(g.CellOf([]float64{10, 10}), coords)
	if coords[0] != 4 || coords[1] != 4 {
		t.Fatalf("boundary coords = %v", coords)
	}
	// Out-of-range points clamp.
	g.Coords(g.CellOf([]float64{-5, 99}), coords)
	if coords[0] != 0 || coords[1] != 4 {
		t.Fatalf("clamped coords = %v", coords)
	}
}

func TestFlatCoordsRoundTrip(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0, 0, 0}, []float64{1, 1, 1}), 4)
	coords := make([]int, 3)
	for flat := 0; flat < g.NumCells(); flat++ {
		g.Coords(flat, coords)
		if got := g.Flat(coords); got != flat {
			t.Fatalf("roundtrip %d -> %v -> %d", flat, coords, got)
		}
	}
}

// cellRect returns the bounding box of the flat-indexed cell: its upper
// corner is the lower corner of the cell one step up in every dimension.
func cellRect(g *Grid, flat int) Rect {
	coords := make([]int, g.Dims())
	g.Coords(flat, coords)
	lower := g.CellLower(coords, make([]float64, g.Dims()))
	for i := range coords {
		coords[i]++
	}
	return Rect{Lower: lower, Upper: g.CellLower(coords, make([]float64, g.Dims()))}
}

func TestCellBoundsContainPoint(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0, 0}, []float64{8, 8}), 4)
	r := rand.New(rand.NewPCG(1, 2))
	f := func() bool {
		p := []float64{r.Float64() * 8, r.Float64() * 8}
		return cellRect(g, g.CellOf(p)).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordRangeHalfOpen(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0}, []float64{10}), 5)
	// Cells are half-open and the interval is closed: the point 2 belongs
	// to cell 1 = [2, 4), so an upper endpoint on a boundary includes the
	// cell above it (excluding it lost every point sitting on that corner).
	lo, hi := g.CoordRange(0, 0, 2)
	if lo != 0 || hi != 1 || g.Coord(0, 2) != 1 {
		t.Fatalf("CoordRange(0,2) = [%d,%d], Coord(2) = %d", lo, hi, g.Coord(0, 2))
	}
	lo, hi = g.CoordRange(0, 0, 1.9)
	if lo != 0 || hi != 0 {
		t.Fatalf("CoordRange(0,1.9) = [%d,%d]", lo, hi)
	}
	// The top of the space is closed: its boundary stays in the last cell.
	lo, hi = g.CoordRange(0, 9, 10)
	if lo != 4 || hi != 4 {
		t.Fatalf("CoordRange(9,10) = [%d,%d]", lo, hi)
	}
	lo, hi = g.CoordRange(0, 1, 5)
	if lo != 0 || hi != 2 {
		t.Fatalf("CoordRange(1,5) = [%d,%d]", lo, hi)
	}
	// Degenerate interval stays in its containing cell.
	lo, hi = g.CoordRange(0, 4, 4)
	if lo != 2 || hi != 2 {
		t.Fatalf("CoordRange(4,4) = [%d,%d]", lo, hi)
	}
}

func TestCellsOverlapping(t *testing.T) {
	g := mustGrid(t, mustBounds(t, []float64{0, 0}, []float64{10, 10}), 5)
	r := Rect{Lower: []float64{1, 1}, Upper: []float64{5, 3}}
	loC, hiC := make([]int, 2), make([]int, 2)
	n := g.CellBox(r, loC, hiC)
	cells := g.BoxCells(loC, hiC, nil)
	// x cells 0..2, y cells 0..1 -> 6 cells, row-major.
	if want := []int{0, 1, 5, 6, 10, 11}; n != 6 || !slices.Equal(cells, want) {
		t.Fatalf("CellBox = %d cells %v..%v, BoxCells = %v, want %v", n, loC, hiC, cells, want)
	}
	// Every listed cell overlaps r; no other cell does.
	for flat := 0; flat < g.NumCells(); flat++ {
		c := cellRect(g, flat)
		overlaps := true
		for i := range c.Lower {
			if c.Upper[i] <= r.Lower[i] || c.Lower[i] >= r.Upper[i] {
				overlaps = false
			}
		}
		if overlaps != slices.Contains(cells, flat) {
			t.Fatalf("cell %d %v: overlaps r = %v, listed = %v", flat, c, overlaps, !overlaps)
		}
	}
}

func TestOrthantRelations(t *testing.T) {
	if !StrictlyBelow([]int{1, 1}, []int{2, 2}) {
		t.Fatal("strictly below")
	}
	if StrictlyBelow([]int{1, 2}, []int{2, 2}) {
		t.Fatal("tie is not strictly below")
	}
	if !LeqAll([]int{1, 2}, []int{1, 2}) || LeqAll([]int{2, 1}, []int{1, 2}) {
		t.Fatal("LeqAll wrong")
	}
}

func TestOrthantPartition(t *testing.T) {
	// The strict orthant is the part of the ≤ orthant with no tie: strictly
	// below means below in every dimension, which implies ≤ one way only.
	r := rand.New(rand.NewPCG(3, 4))
	f := func() bool {
		a := []int{r.IntN(4), r.IntN(4), r.IntN(4)}
		b := []int{r.IntN(4), r.IntN(4), r.IntN(4)}
		strict := a[0] < b[0] && a[1] < b[1] && a[2] < b[2]
		if StrictlyBelow(a, b) != strict {
			return false
		}
		return !strict || LeqAll(a, b) && !LeqAll(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	a := Rect{Lower: []float64{0, 0}, Upper: []float64{2, 2}}
	b := Rect{Lower: []float64{3, 3}, Upper: []float64{4, 4}}
	if !a.DominatesRect(b) {
		t.Fatal("a's upper dominates b's lower")
	}
	if b.DominatesRect(a) {
		t.Fatal("b cannot dominate a")
	}
	// Touching rects: upper == lower has no strict dimension.
	c := Rect{Lower: []float64{2, 2}, Upper: []float64{4, 4}}
	if a.DominatesRect(c) {
		t.Fatal("equal corner must not dominate")
	}
	u := Rect{Lower: slices.Clone(a.Lower), Upper: slices.Clone(a.Upper)}
	u.Extend(b)
	if u.Lower[0] != 0 || u.Upper[1] != 4 || a.Upper[1] != 2 {
		t.Fatalf("a extended by b = %s (a = %s)", u, a)
	}
	if a.String() == "" {
		t.Fatal("rect must render")
	}
}
