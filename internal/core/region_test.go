package core

import (
	"fmt"
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/smj"
)

// progCount is Definition 2 for one region: the region's solo cells (active,
// RegCount 1) whose closed lower orthant holds no active cell still awaiting
// another unprocessed region, found by scanning the active set per cell. It
// reads the live state, so it also answers mid-run. It is the oracle of
// progCounts.
func progCount(s *space, r *region) int {
	count := 0
	for _, flat := range boxCells(s.g, r) {
		c := s.cellAt(flat)
		if c.activeIdx < 0 || c.regCount != 1 || c.marked {
			continue
		}
		free := true
		for _, q := range s.active {
			if q != c && s.g.Leq(q.key, c.key) && remainingExcluding(q, r) != 0 {
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
// cover the cell. r is unprocessed and covers exactly the cells of its
// coordinate box.
func remainingExcluding(c *cell, r *region) int {
	n := c.regCount
	if grid.LeqAll(r.minC, c.coords) && grid.LeqAll(c.coords, r.maxC) {
		n--
	}
	return n
}

// boxCells lists the flat ids of the region's coordinate box, ascending.
func boxCells(g *grid.Grid, r *region) []int {
	return g.BoxCells(r.minC, r.maxC, nil)
}

// requireProgCounts checks the one-pass rank's counts against the per-region
// oracle on a freshly built space and returns their sum.
func requireProgCounts(tb testing.TB, label string, s *space, regions []*region) int {
	tb.Helper()
	got := progCounts(s, len(regions))
	total := 0
	for _, r := range regions {
		if want := progCount(s, r); got[r.id] != want {
			tb.Fatalf("%s: progCounts[%d] = %d, per-region progCount %d (box %v..%v)", label, r.id, got[r.id], want, r.minC, r.maxC)
		}
		total += got[r.id]
	}
	return total
}

// TestProgCountsMatchPerRegion: one pass over the output grid gives every
// region the progCount the per-region scan gives it — on the golden
// problems, on grid and kd plans at d = 2…5, and on a few large regions over
// a fine output grid (solos × active cells past 2²¹).
func TestProgCountsMatchPerRegion(t *testing.T) {
	type shape struct {
		name     string
		p        *smj.Problem
		opts     Options
		outCells int
	}
	var shapes []shape
	for _, part := range []Partitioning{PartitionGrid, PartitionKD} {
		shapes = append(shapes,
			shape{fmt.Sprintf("golden anti d=3 %s", part), smokeProblem(t, 1500, 3, datagen.AntiCorrelated, 0.02, 2301), Options{Partitioning: part}, 0},
			shape{fmt.Sprintf("golden indep d=4 %s", part), smokeProblem(t, 1500, 4, datagen.Independent, 0.02, 2302), Options{Partitioning: part}, 0})
		for d := 2; d <= 5; d++ {
			shapes = append(shapes, shape{fmt.Sprintf("anti d=%d %s", d, part), smokeProblem(t, 800, d, datagen.AntiCorrelated, 0.02, uint64(40+d)), Options{Partitioning: part, InputCells: 3}, 0})
		}
	}
	shapes = append(shapes, shape{"large regions", smokeProblem(t, 600, 2, datagen.AntiCorrelated, 0.05, 17), Options{InputCells: 2}, 64})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			regions, s, _ := planSpace(t, preparePlan(t, sh.p, sh.opts), sh.outCells, 0)
			if requireProgCounts(t, sh.name, s, regions) == 0 {
				t.Fatal("every count is zero; the comparison is vacuous")
			}
		})
	}
}

// FuzzProgCounts decodes bytes into a small grid (d ≤ 4, ≤ 6 cells per
// dimension), up to 20 random region boxes and random static marks, and
// checks the coverage table against counting boxes and the one-pass rank
// against the per-region progCount.
func FuzzProgCounts(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 5, 5, 0, 0, 3, 30, 0, 4, 1, 2, 3, 1, 0, 0, 4},
		{3, 2, 2, 2, 2, 19, 50, 0, 1, 1, 0, 0, 1, 1, 1, 0},
		{2, 5, 5, 5, 5, 7, 0, 2, 3, 0, 5, 4, 1, 1, 0, 9, 9},
		{0, 3, 0, 0, 0, 12, 90, 1, 2, 0, 1, 2, 2, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[i%len(data)])
		}
		d := 1 + at(0)%4
		k := make([]int, d)
		lo, hi := make([]float64, d), make([]float64, d)
		for i := range k {
			k[i], hi[i] = 1+at(1+i)%6, 1
		}
		n, markPct := 1+at(5)%20, at(6)%100
		b, err := grid.NewBounds(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.New(b, k)
		if err != nil {
			t.Fatal(err)
		}
		pos := 7
		regions := make([]*region, n)
		for id := range regions {
			r := &region{id: id, minC: make([]int, d), maxC: make([]int, d)}
			for i := range d {
				r.minC[i] = at(pos) % k[i]
				r.maxC[i] = r.minC[i] + at(pos+1)%(k[i]-r.minC[i])
				pos += 2
			}
			regions[id] = r
		}
		var stats smj.Stats
		s := newSpace(g, &stats)
		s.addCells(coverage(g, regions))

		covering := make([]int, g.NumCells())
		for _, r := range regions {
			for _, flat := range boxCells(g, r) {
				covering[flat]++
			}
		}
		created := 0
		for flat, want := range covering {
			c := s.cellAt(flat)
			switch {
			case want == 0 && c != nil:
				t.Fatalf("cell %d covered by no box exists", flat)
			case want > 0 && (c == nil || c.regCount != want):
				t.Fatalf("cell %d: covered by %d boxes, cell %+v", flat, want, c)
			case want > 0:
				created++
			}
		}
		if created != len(s.cellList) || !slices.IsSortedFunc(s.cellList, func(a, b *cell) int { return a.flat - b.flat }) {
			t.Fatalf("%d covered cells, cell list of %d not in flat order", created, len(s.cellList))
		}

		for ci, c := range s.cellList {
			if at(pos+ci)%100 < markPct {
				s.mark(c)
			}
		}
		s.activate()
		requireProgCounts(t, fmt.Sprintf("d=%d k=%v", d, k), s, regions)
	})
}
