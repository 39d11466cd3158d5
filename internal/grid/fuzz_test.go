package grid

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// fuzzCells are the per-dimension cell counts a high byte selects: lane
// widths at and around the powers of two, and counts at the bound.
var fuzzCells = []int{2, 3, 100, 127, 128, 129, 255, 256, 1 << 11, 1 << 20, MaxCells, MaxCells + 1}

// fuzzEnds are the bound values: signed zeros, units, magnitudes where a
// unit is below the float step, and magnitudes whose spans barely fit.
var fuzzEnds = []float64{0, math.Copysign(0, -1), 1, -1, 1e16, -1e16, 4e307, -4e307}

// FuzzGridCell maps bytes to a grid of 1–24 dimensions and checks the
// invariants the engine builds on: New refuses exactly the grids of more
// than MaxCells cells; an accepted grid's key layout fits in 42 bits and its
// packed ≤ agrees with LeqAll; Box walks a box of up to 4096 cells in
// ascending order, its cells and no others, BoxVolume counts them, and a
// break stops the walk; and CellLower is exact — every value lies between
// the lower edge of the cell Coord puts it in and, below the top cell, the
// lower edge of the next.
func FuzzGridCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		d := 1 + int(in.next())%24
		cells := make([]int, d)
		lo, hi := make([]float64, d), make([]float64, d)
		for i := range cells {
			if b := in.next(); b < 0x80 {
				cells[i] = 1 + int(b)%16
			} else {
				cells[i] = fuzzCells[int(b)%len(fuzzCells)]
			}
			b := in.next()
			lo[i], hi[i] = fuzzEnds[b%8], fuzzEnds[(b>>3)%8]
			if b&0x40 != 0 {
				hi[i] = lo[i]
			}
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
		}
		bounds, err := NewBounds(lo, hi)
		if err != nil {
			t.Fatalf("NewBounds(%v, %v): %v", lo, hi, err)
		}
		total := big.NewInt(1)
		for _, k := range cells {
			total.Mul(total, big.NewInt(int64(k)))
		}
		g, err := New(bounds, cells)
		if over := total.Cmp(big.NewInt(MaxCells)) > 0; over != (err != nil) {
			t.Fatalf("cells %v (%s in all): New error %v", cells, total, err)
		}
		if err != nil {
			return
		}

		// The key layout: at most 42 bits, and no coordinate reaches a guard.
		top := make([]int, d)
		for i, k := range cells {
			top[i] = k - 1
		}
		if n := bits.Len64(g.guard); n > 42 || g.Key(top)&g.guard != 0 {
			t.Fatalf("cells %v: guard %#x (%d bits), top key %#x", cells, g.guard, n, g.Key(top))
		}
		coord := func(i int) int { return int(in.next()) * 257 % cells[i] }
		a, b := make([]int, d), make([]int, d)
		for pair := 0; pair < 16; pair++ {
			for i := range a {
				a[i] = coord(i)
				switch in.next() % 4 {
				case 0:
					b[i] = a[i]
				case 1:
					b[i] = min(a[i]+1, cells[i]-1)
				case 2:
					b[i] = max(a[i]-1, 0)
				default:
					b[i] = coord(i)
				}
			}
			ka, kb := g.Key(a), g.Key(b)
			mask := int64(0)
			if LeqAll(a, b) {
				mask = -1
			}
			if g.LeqMask(ka, kb) != mask {
				t.Fatalf("cells %v: a %v b %v: LeqMask %#x, LeqAll %v", cells, a, b, g.LeqMask(ka, kb), LeqAll(a, b))
			}
			if g.Leq(ka, kb) != LeqAll(a, b) || g.Leq(kb, ka) != LeqAll(b, a) {
				t.Fatalf("cells %v: a %v b %v: packed ≤ %v/%v, LeqAll %v/%v", cells, a, b, g.Leq(ka, kb), g.Leq(kb, ka), LeqAll(a, b), LeqAll(b, a))
			}
		}

		// Box walks against brute force: on a grid of at most 4096 cells the
		// cells whose coordinates lie in the box, in flat order; on a larger
		// one, yields that lie in the box and strictly ascend, as many as the
		// box has cells (so every one of them).
		boxLo, boxHi := make([]int, d), make([]int, d)
		vol := 1
		for i := range boxLo {
			boxLo[i] = coord(i)
			span := min(int(in.next())%4, cells[i]-1-boxLo[i], 4096/vol-1)
			boxHi[i] = boxLo[i] + span
			vol *= span + 1
		}
		if n := BoxVolume(boxLo, boxHi); n != vol {
			t.Fatalf("cells %v: BoxVolume(%v, %v) = %d, want %d", cells, boxLo, boxHi, n, vol)
		}
		inBox := func(flat int) bool {
			c := g.Coords(flat, make([]int, d))
			return LeqAll(boxLo, c) && LeqAll(c, boxHi)
		}
		got := slices.Collect(g.Box(boxLo, boxHi))
		if g.NumCells() <= 4096 {
			var want []int
			for flat := range g.NumCells() {
				if inBox(flat) {
					want = append(want, flat)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cells %v: Box(%v, %v) = %v, want %v", cells, boxLo, boxHi, got, want)
			}
		}
		for j, flat := range got {
			if !inBox(flat) || j > 0 && flat <= got[j-1] {
				t.Fatalf("cells %v: Box(%v, %v) yields %v", cells, boxLo, boxHi, got)
			}
		}
		if len(got) != vol {
			t.Fatalf("cells %v: Box(%v, %v) yields %d cells, want %d", cells, boxLo, boxHi, len(got), vol)
		}
		stop, walked := 1+int(in.next())%vol, 0
		for range g.Box(boxLo, boxHi) {
			if walked++; walked == stop {
				break
			}
		}
		if walked != stop {
			t.Fatalf("cells %v: Box(%v, %v) walked %d cells past a break at %d", cells, boxLo, boxHi, walked, stop)
		}
		for i := range boxLo {
			if boxLo[i] > 0 {
				boxHi[i] = boxLo[i] - 1
				if n := BoxVolume(boxLo, boxHi); n != 0 {
					t.Fatalf("cells %v: BoxVolume(%v, %v) = %d, want 0", cells, boxLo, boxHi, n)
				}
				break
			}
		}

		// Exact edges: values at the bounds, on and next to cell edges, and
		// spread across the span.
		b0 := g.Bounds()
		p := make([]float64, d)
		at, lower, upper := make([]int, d), make([]float64, d), make([]float64, d)
		for point := 0; point < 16; point++ {
			for i := range p {
				l, h := b0.Lo[i], b0.Hi[i]
				v := l + float64(in.next())/255*(h-l)
				switch sel := in.next(); sel % 4 {
				case 0:
					v = g.edges[i][int(sel/4)%(cells[i]+1)]
				case 1:
					v = math.Nextafter(g.edges[i][int(sel/4)%(cells[i]+1)], math.Inf(-1))
				case 2:
					v = math.Nextafter(g.edges[i][int(sel/4)%(cells[i]+1)], math.Inf(1))
				}
				p[i] = min(max(v, l), h)
			}
			g.Coords(g.CellOf(p), at)
			g.CellLower(at, lower)
			for i := range at {
				at[i]++
			}
			g.CellLower(at, upper)
			for i, v := range p {
				if lower[i] > v || at[i] < cells[i] && v >= upper[i] {
					t.Fatalf("cells %v bounds [%v, %v]: dimension %d value %v in cell %d with edges [%v, %v)", cells, b0.Lo, b0.Hi, i, v, at[i]-1, lower[i], upper[i])
				}
			}
		}
	})
}
