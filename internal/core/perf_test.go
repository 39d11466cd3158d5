package core

import (
	"math/rand/v2"
	"testing"

	"progxe/internal/smj"
)

// perfSpace builds a space over one 2-d region spanning [0,10]² with the
// given output resolution, for driving the tuple-level protocol directly.
func perfSpace(tb testing.TB, outputCells int) (*space, *region) {
	tb.Helper()
	left := []*inputPartition{mkPart(0, []float64{0, 0}, []float64{5, 5})}
	right := []*inputPartition{mkPart(1, []float64{0, 0}, []float64{5, 5})}
	regions, pruned, front := buildRegions(left, right, sumMaps2(), nil)
	if pruned != 0 || len(regions) != 1 {
		tb.Fatalf("setup: pruned=%d regions=%d", pruned, len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, outputCells, &stats, 0)
	if err != nil {
		tb.Fatal(err)
	}
	s.emit = func(outTuple) {}
	return s, regions[0]
}

// perfVectors generates n anti-correlated-ish 2-d vectors inside the space
// bounds, the worst case for survivor counts.
func perfVectors(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(7, 13))
	out := make([][]float64, n)
	for i := range out {
		x := rng.Float64() * 10
		y := 10 - x + rng.Float64()*0.5
		if y > 10 {
			y = 10
		}
		out[i] = []float64{x, y}
	}
	return out
}

// BenchmarkInsert measures steady-state tuple-level processing: one insert
// per iteration over a pre-populated anti-correlated space.
func BenchmarkInsert(b *testing.B) {
	s, _ := perfSpace(b, 16)
	vecs := perfVectors(4096)
	for _, v := range vecs { // warm the space with the initial front
		if c := s.cellAt(s.g.CellOf(v)); c != nil {
			s.insert(c, 1, 1, v, sumOf(v))
		}
	}
	s.flushFree()
	v := make([]float64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A slowly advancing front: each tuple slightly improves on its
		// same-x predecessor, so inserts keep evicting (and recycling)
		// instead of accumulating equal survivors.
		p := vecs[i%len(vecs)]
		v[0], v[1] = p[0], p[1]-float64(i)*1e-7
		if v[1] < 0 {
			v[1] = 0
		}
		if c := s.cellAt(s.g.CellOf(v)); c != nil {
			s.insert(c, 1, 1, v, sumOf(v))
		}
		if i%256 == 255 {
			s.flushFree()
		}
	}
}

// BenchmarkPopulate measures first-population cost including the dynamic
// strict-upper marking sweep, by filling a fresh space cell by cell.
func BenchmarkPopulate(b *testing.B) {
	vecs := perfVectors(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := perfSpace(b, 16)
		b.StartTimer()
		for _, v := range vecs {
			if c := s.cellAt(s.g.CellOf(v)); c != nil {
				s.insert(c, 1, 1, v, sumOf(v))
			}
		}
	}
}

// TestInsertSteadyStateZeroAlloc pins the arena guarantee: once the space
// is warm, a surviving insert that evicts a prior survivor performs no heap
// allocations (the evicted vector is recycled for the newcomer).
func TestInsertSteadyStateZeroAlloc(t *testing.T) {
	s, _ := perfSpace(t, 8)
	c := s.cellAt(s.g.CellOf([]float64{4, 4}))
	if c == nil {
		t.Fatal("no cell at (4,4)")
	}
	v := []float64{4, 4}
	// Warm up: populate the cell, exercise the evict-recycle cycle once,
	// and let pendingFree/free reach steady capacity.
	for i := 0; i < 8; i++ {
		v[0], v[1] = v[0]-1e-6, v[1]-1e-6
		if _, ok := s.insert(c, 1, 1, v, sumOf(v)); !ok {
			t.Fatal("warmup insert must survive")
		}
		s.flushFree()
	}
	allocs := testing.AllocsPerRun(200, func() {
		// Each insert strictly dominates the sole survivor: the old vector
		// is evicted to pendingFree and recycled by flushFree.
		v[0], v[1] = v[0]-1e-6, v[1]-1e-6
		if _, ok := s.insert(c, 1, 1, v, sumOf(v)); !ok {
			t.Fatal("steady-state insert must survive")
		}
		s.flushFree()
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert allocates %.2f times per surviving tuple, want 0", allocs)
	}
	// Rejected tuples must also be allocation-free.
	reject := []float64{4.5, 4.5}
	allocs = testing.AllocsPerRun(200, func() {
		if _, ok := s.insert(c, 1, 1, reject, sumOf(reject)); ok {
			t.Fatal("dominated insert must be rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("rejected insert allocates %.2f times, want 0", allocs)
	}
}
