// Package grid provides the uniform multi-dimensional grid structure the
// ProgXe framework partitions its input and output spaces with (§III). It
// offers cell indexing, hyper-rectangle ("region") algebra, and the orthant
// and slice relations between cells that drive elimination and dependency
// reasoning.
//
// Cells are half-open boxes [lower, upper) except along the top boundary of
// the space, where the last cell is closed so every point of the bounded
// space belongs to exactly one cell. Cell coordinates are integer vectors;
// a flat index linearizes them row-major. Every grid holds at most MaxCells
// cells, so a flat-indexed table over any grid is bounded too.
package grid

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// MaxCells bounds the cell count of every grid: at the bound a flat table
// of pointers over the cells is 16 MiB.
const MaxCells = 1 << 21

// Size returns the cell count of a grid with cells[i] cells along dimension
// i, refusing a count below 1 and a product above MaxCells.
func Size(cells []int) (int, error) {
	n := 1.0 // exact while it matters: every product up to 2⁵³ is
	for i, k := range cells {
		if k <= 0 {
			return 0, fmt.Errorf("grid: dimension %d has %d cells; need ≥ 1", i, k)
		}
		n *= float64(k)
	}
	if n > MaxCells {
		return 0, fmt.Errorf("grid: %s cells exceed the bound of %d (2^21)", strconv.FormatFloat(n, 'f', -1, 64), MaxCells)
	}
	return int(n), nil
}

// Bounds is the bounding box of a d-dimensional space.
type Bounds struct {
	Lo []float64
	Hi []float64
}

// NewBounds validates and returns a bounding box. Hi must be ≥ Lo in every
// dimension; zero-width dimensions are widened by a small epsilon (and by at
// least one float step) so that the grid always has positive cell volume.
func NewBounds(lo, hi []float64) (Bounds, error) {
	if len(lo) != len(hi) {
		return Bounds{}, fmt.Errorf("grid: bounds dimension mismatch: %d vs %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Bounds{}, fmt.Errorf("grid: bounds need at least one dimension")
	}
	l, h := slices.Clone(lo), slices.Clone(hi)
	for i := range l {
		if math.IsNaN(l[i]) || math.IsNaN(h[i]) || math.IsInf(l[i], 0) || math.IsInf(h[i], 0) {
			return Bounds{}, fmt.Errorf("grid: bounds dimension %d is not finite", i)
		}
		if h[i] < l[i] {
			return Bounds{}, fmt.Errorf("grid: bounds dimension %d inverted: [%g, %g]", i, l[i], h[i])
		}
		if h[i] == l[i] {
			h[i] = max(l[i]+1e-9, math.Nextafter(l[i], math.Inf(1)))
		}
	}
	return Bounds{Lo: l, Hi: h}, nil
}

// Dims returns the dimensionality of the bounds.
func (b Bounds) Dims() int { return len(b.Lo) }

// Grid is a uniform partitioning of a bounded d-dimensional space into
// cells-per-dimension k[i] half-open boxes.
type Grid struct {
	bounds Bounds
	cells  []int       // cells per dimension
	width  []float64   // cell width per dimension
	edges  [][]float64 // k[i]+1 exact cell edges per dimension (see cellEdges)
	stride []int       // row-major strides
	total  int         // total number of cells
	shift  []uint      // bit offset of each dimension's lane in a Key
	guard  uint64      // the guard bit above every lane
}

// New returns a grid over bounds with cells[i] cells along dimension i, at
// most MaxCells in all.
func New(bounds Bounds, cells []int) (*Grid, error) {
	if len(cells) != bounds.Dims() {
		return nil, fmt.Errorf("grid: %d cell counts for %d dimensions", len(cells), bounds.Dims())
	}
	total, err := Size(cells)
	if err != nil {
		return nil, err
	}
	d := bounds.Dims()
	g := &Grid{
		bounds: bounds,
		cells:  slices.Clone(cells),
		width:  make([]float64, d),
		edges:  make([][]float64, d),
		stride: make([]int, d),
		total:  total,
		shift:  make([]uint, d),
	}
	var at uint
	for i, k := range cells {
		g.width[i] = (bounds.Hi[i] - bounds.Lo[i]) / float64(k)
		g.edges[i] = g.cellEdges(i)
		g.shift[i] = at
		if k > 1 {
			w := uint(bits.Len(uint(k - 1)))
			g.guard |= 1 << (at + w)
			at += w + 1
		}
	}
	// Row-major strides: last dimension varies fastest.
	s := 1
	for i := d - 1; i >= 0; i-- {
		g.stride[i] = s
		s *= cells[i]
	}
	return g, nil
}

// reach is Coord's cell formula before clamping, in floating point so that
// no value converts out of range.
func (g *Grid) reach(i int, v float64) float64 {
	return math.Floor((v - g.bounds.Lo[i]) / g.width[i])
}

// cellEdges returns the k+1 cell edges of dimension i: the bounds at 0 and
// k, and in between edge c = the smallest value of the bounds that reach
// maps to c or above. Since reach is monotone, Coord puts v in cell c
// exactly when edge c ≤ v < edge c+1 (below the top cell). The nominal
// lo + c·w is that value unless rounding moved the boundary (on a grid
// spanning ±4e307, −5e15 lands in the cell whose nominal edge is 0), and
// then bisection over the ordered floats finds it.
func (g *Grid) cellEdges(i int) []float64 {
	k, lo, hi := g.cells[i], g.bounds.Lo[i], g.bounds.Hi[i]
	edges := make([]float64, k+1)
	edges[0], edges[k] = lo, hi
	for c := 1; c < k; c++ {
		at := float64(c)
		e := lo + at*g.width[i]
		if e <= hi && g.reach(i, e) >= at && !(g.reach(i, math.Nextafter(e, math.Inf(-1))) >= at) {
			edges[c] = e
			continue
		}
		// Bisect: reach(a) < c (a = lo reaches 0) and reach(b) ≥ c, as
		// reach(hi) ≥ k−1 unless the width is degenerate (then edge c = hi).
		a, b := floatOrd(lo), floatOrd(hi)
		for b-a > 1 {
			m := a + (b-a)/2
			if g.reach(i, ordFloat(m)) >= at {
				b = m
			} else {
				a = m
			}
		}
		edges[c] = ordFloat(b)
	}
	return edges
}

// floatOrd maps a float to a uint64 in the same order (−0 just below +0).
func floatOrd(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// ordFloat inverts floatOrd.
func ordFloat(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// Uniform returns a grid with k cells along every dimension.
func Uniform(bounds Bounds, k int) (*Grid, error) {
	return New(bounds, slices.Repeat([]int{k}, bounds.Dims()))
}

// Dims returns the dimensionality of the grid.
func (g *Grid) Dims() int { return len(g.cells) }

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.total }

// CellsPerDim returns the number of cells along dimension i.
func (g *Grid) CellsPerDim(i int) int { return g.cells[i] }

// Stride returns the row-major flat-index stride of dimension i: adjacent
// cells along dimension i differ by Stride(i) in flat index.
func (g *Grid) Stride(i int) int { return g.stride[i] }

// Bounds returns the grid's bounding box.
func (g *Grid) Bounds() Bounds { return g.bounds }

// Coord returns the cell coordinate of value v along dimension i, clamping
// to the valid range so boundary and out-of-range points fall into the
// nearest cell. The clamp is taken in floating point: converting a quotient
// beyond the int range (a far outlier, or ±Inf) to int is
// implementation-defined. A NaN quotient — bounds spanning more than
// MaxFloat64 give an infinite width, and Inf/Inf where v−lo overflows too —
// goes to cell 0, where every point of such a dimension lies.
func (g *Grid) Coord(i int, v float64) int {
	c := g.reach(i, v)
	switch {
	case !(c >= 0):
		return 0
	case c >= float64(g.cells[i]):
		return g.cells[i] - 1
	}
	return int(c)
}

// CellOf returns the flat index of the cell containing point p.
func (g *Grid) CellOf(p []float64) int {
	idx := 0
	for i := range g.cells {
		idx += g.Coord(i, p[i]) * g.stride[i]
	}
	return idx
}

// Coords decodes a flat cell index into per-dimension coordinates, writing
// into dst (which must have length Dims()) and returning it.
func (g *Grid) Coords(flat int, dst []int) []int {
	for i := range g.cells {
		dst[i] = flat / g.stride[i]
		flat %= g.stride[i]
	}
	return dst
}

// Flat encodes per-dimension coordinates into a flat cell index.
func (g *Grid) Flat(coords []int) int {
	idx := 0
	for i, c := range coords {
		idx += c * g.stride[i]
	}
	return idx
}

// CellLower returns the lower corner point of the cell with the given
// coordinates, writing into dst and returning it. It is exact (see
// cellEdges): a LOWER that bounds every member of the cell. A coordinate
// may be k[i], giving the upper bound.
func (g *Grid) CellLower(coords []int, dst []float64) []float64 {
	for i, c := range coords {
		dst[i] = g.edges[i][c]
	}
	return dst
}

// Key packs cell coordinates into one uint64 under the grid's own lanes:
// dimension i takes bits.Len(k[i]−1) value bits and a guard bit, and a
// one-cell dimension none. As ⌈log₂k⌉+1 ≤ 2·log₂k for k ≥ 2, a grid within
// MaxCells needs at most 42 bits.
func (g *Grid) Key(coords []int) uint64 {
	var key uint64
	for i, c := range coords {
		key |= uint64(c) << g.shift[i]
	}
	return key
}

// Leq reports componentwise a ≤ b for two keys of this grid in one
// subtraction: each lane of (b|guard)−a keeps its guard bit exactly when
// that lane of a does not exceed b's, and never borrows out of the lane.
func (g *Grid) Leq(a, b uint64) bool { return ((b|g.guard)-a)&g.guard == g.guard }

// LeqMask is Leq as an arithmetic mask, for branch-free sums over many keys:
// all ones when a ≤ b componentwise, 0 otherwise.
func (g *Grid) LeqMask(a, b uint64) int64 {
	t := ((b|g.guard)-a)&g.guard ^ g.guard // 0 exactly when a ≤ b
	return -int64((t - 1) >> 63)
}

// CoordRange returns the inclusive coordinate range [loC, hiC] of the cells
// that hold a point of the closed interval [lo, hi] along dimension i. An
// upper endpoint exactly on a cell boundary includes the cell above it:
// cells are half-open, so a point at hi belongs there.
func (g *Grid) CoordRange(i int, lo, hi float64) (int, int) {
	return g.Coord(i, lo), g.Coord(i, hi)
}

// CellBox writes into loC and hiC the inclusive coordinate box of the cells
// that hold a point of the closed rectangle r — CellOf of every point of r
// lies in it — and returns the number of cells in it.
func (g *Grid) CellBox(r Rect, loC, hiC []int) int {
	for i := range loC {
		loC[i], hiC[i] = g.CoordRange(i, r.Lower[i], r.Upper[i])
	}
	return BoxVolume(loC, hiC)
}

// BoxVolume returns the number of cells in the inclusive coordinate box
// lo..hi, 0 when the box is empty (hi < lo in some dimension).
func BoxVolume(lo, hi []int) int {
	n := 1
	for i, l := range lo {
		if hi[i] < l {
			return 0
		}
		n *= hi[i] - l + 1
	}
	return n
}

// Box yields the flat indices of the cells of the non-empty inclusive
// coordinate box lo..hi in ascending order: an odometer over the
// coordinates, last dimension fastest, so row-major order is flat order.
func (g *Grid) Box(lo, hi []int) iter.Seq[int] {
	return func(yield func(int) bool) {
		at := make([]int, 0, 8)
		at = append(at, lo...)
		flat := g.Flat(at)
		for yield(flat) {
			i := len(at) - 1
			for ; i >= 0; i-- {
				at[i]++
				flat += g.stride[i]
				if at[i] <= hi[i] {
					break
				}
				flat -= (at[i] - lo[i]) * g.stride[i]
				at[i] = lo[i]
			}
			if i < 0 {
				return
			}
		}
	}
}

// StrictlyBelow reports whether cell coordinates a are strictly smaller than
// b in every dimension. A populated cell a with this property dominates every
// tuple that maps into cell b (§III-B observation 2 / §V Set 1).
func StrictlyBelow(a, b []int) bool {
	for i := range a {
		if a[i] >= b[i] {
			return false
		}
	}
	return true
}

// LeqAll reports whether a ≤ b in every dimension.
func LeqAll(a, b []int) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}
