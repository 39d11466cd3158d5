package grid

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// randCorners generates n random (src, dst) corner pairs on a random grid
// shape: dst within [0, k), src within [0, k] (the sched layer's +1 shift
// can land on the top boundary).
func randCorners(rng *rand.Rand, n, d, kMax int) (src, dst [][]int, k []int) {
	k = make([]int, d)
	for i := range k {
		k[i] = 2 + rng.IntN(kMax-1)
	}
	src = make([][]int, n)
	dst = make([][]int, n)
	for id := 0; id < n; id++ {
		s := make([]int, d)
		t := make([]int, d)
		for i := range s {
			s[i] = rng.IntN(k[i] + 1)
			t[i] = rng.IntN(k[i])
		}
		src[id], dst[id] = s, t
	}
	return src, dst, k
}

// bruteEdge is the index's relation, evaluated directly.
func bruteEdge(src, dst [][]int, x, y int) bool { return LeqAll(src[x], dst[y]) }

// TestBoxIndexMatchesBruteForce is the index's differential property test:
// randomized corner sets against the all-pairs evaluation of the relation.
// The mode names and seeds date from the index's Fenwick and packed-key
// paths, kept so the trial labels stay the same: "slice/d=9" is the
// coordinate-slice compare over many narrow dimensions and
// "fenwick-fallback" the bucket walk of InDegrees, both now the only paths.
func TestBoxIndexMatchesBruteForce(t *testing.T) {
	modes := []struct {
		name    string
		d, kMax int
		seed    uint64
	}{
		{"slice/d=9", 9, 4, 1 << 21},
		{"fenwick-fallback", 3, 16, 1},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(m.d)*131+uint64(m.kMax), m.seed))
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.IntN(90)
				workers := rng.IntN(3) * 2 // 0, 2, 4 — counts must not depend on it
				src, dst, k := randCorners(rng, n, m.d, m.kMax)
				label := fmt.Sprintf("trial %d (n=%d k=%v w=%d)", trial, n, k, workers)
				t.Run(label, func(t *testing.T) {
					checkBoxIndex(t, rng, src, dst, k, workers)
				})
			}
		})
	}
}

func checkBoxIndex(t *testing.T, rng *rand.Rand, src, dst [][]int, k []int, workers int) {
	t.Helper()
	n := len(src)
	ix := NewBoxIndex(src, dst, k)

	// Bulk predecessor counts, self included.
	inDeg := ix.InDegrees(workers)
	for y := 0; y < n; y++ {
		want := int32(0)
		for x := 0; x < n; x++ {
			if bruteEdge(src, dst, x, y) {
				want++
			}
		}
		if inDeg[y] != want {
			t.Fatalf("InDegrees[%d] = %d, want %d", y, inDeg[y], want)
		}
	}

	collectOut := func(x int) []int32 {
		var got []int32
		ix.EachOut(int32(x), func(y int32) { got = append(got, y) })
		slices.Sort(got)
		return got
	}
	bruteOut := func(x int, live []bool) []int32 {
		var want []int32
		for y := 0; y < n; y++ {
			if live[y] && bruteEdge(src, dst, x, y) {
				want = append(want, int32(y))
			}
		}
		return want
	}

	allLive := make([]bool, n)
	for i := range allLive {
		allLive[i] = true
	}
	for x := 0; x < n; x++ {
		if got, want := collectOut(x), bruteOut(x, allLive); !slices.Equal(got, want) {
			t.Fatalf("EachOut(%d) = %v, want %v", x, got, want)
		}
	}

	// Retire half the boxes: EachOut must stop enumerating them, while the
	// predecessor counts keep including them. Double-retire is a no-op.
	live := slices.Clone(allLive)
	for id := 0; id < n; id++ {
		if rng.IntN(2) == 0 {
			live[id] = false
			ix.Retire(int32(id))
			ix.Retire(int32(id))
		}
	}
	for x := 0; x < n; x++ {
		if got, want := collectOut(x), bruteOut(x, live); !slices.Equal(got, want) {
			t.Fatalf("EachOut(%d) after retire = %v, want %v", x, got, want)
		}
	}
	if again := ix.InDegrees(workers); !slices.Equal(again, inDeg) {
		t.Fatalf("InDegrees after retire = %v, want %v (retire must not shrink the predecessor side)", again, inDeg)
	}
}
