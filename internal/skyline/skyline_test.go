package skyline

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"progxe/internal/preference"
)

// naive is the reference O(n²) skyline.
func naive(pts [][]float64) []int {
	var out []int
	for i := range pts {
		dominated := false
		for j := range pts {
			if i != j && preference.DominatesMin(pts[j], pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func randomPoints(r *rand.Rand, n, d, domain int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(r.IntN(domain))
		}
		pts[i] = p
	}
	return pts
}

func TestAlgorithmsAgreeWithNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 20))
	for _, d := range []int{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 2, 17, 100} {
			pts := randomPoints(r, n, d, 6) // small domain forces ties/duplicates
			want := naive(pts)
			got := Compute(pts)
			if want == nil {
				want = []int{}
			}
			if got == nil {
				got = []int{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d n=%d: got %v want %v", d, n, got, want)
			}
		}
	}
}

// TestComputeRoundedSumTie: a point whose float sum ties with its
// dominator's must still lose, whichever comes first in the input.
func TestComputeRoundedSumTie(t *testing.T) {
	lo, hi := []float64{1e16, 0}, []float64{1e16, 1} // 1e16+1 rounds to 1e16
	for _, pts := range [][][]float64{{lo, hi}, {hi, lo}} {
		if got, want := Compute(pts), naive(pts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Compute(%v) = %v, want %v", pts, got, want)
		}
	}
}

func TestSkylinePropertyNonDominated(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	f := func() bool {
		pts := randomPoints(r, 40, 3, 5)
		sky := Compute(pts)
		inSky := map[int]bool{}
		for _, i := range sky {
			inSky[i] = true
		}
		for _, i := range sky {
			for j := range pts {
				if i != j && preference.DominatesMin(pts[j], pts[i]) {
					return false // skyline member dominated
				}
			}
		}
		for i := range pts {
			if inSky[i] {
				continue
			}
			dominated := false
			for j := range pts {
				if i != j && preference.DominatesMin(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false // non-member that nothing dominates
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatesAllRetained(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	if got := Compute(pts); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("duplicates: got %v", got)
	}
}

func TestComputeSortedOutput(t *testing.T) {
	r := rand.New(rand.NewPCG(77, 88))
	pts := randomPoints(r, 200, 3, 50)
	if got := Compute(pts); !sort.IntsAreSorted(got) {
		t.Fatalf("output not sorted: %v", got)
	}
}

func TestEstimateCardinality(t *testing.T) {
	if EstimateCardinality(0, 3) != 0 || EstimateCardinality(-1, 3) != 0 {
		t.Fatal("non-positive n must estimate 0")
	}
	if EstimateCardinality(100, 1) != 1 {
		t.Fatal("d=1 has exactly one maximum on average")
	}
	// d=2: ln(n); d=3: ln(n)^2/2.
	n := 1000.0
	if got, want := EstimateCardinality(n, 2), math.Log(n); math.Abs(got-want) > 1e-9 {
		t.Fatalf("d=2: got %g want %g", got, want)
	}
	if got, want := EstimateCardinality(n, 3), math.Pow(math.Log(n), 2)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("d=3: got %g want %g", got, want)
	}
	// Estimate is capped by n and floored at 1.
	if EstimateCardinality(2, 8) > 2 {
		t.Fatal("estimate must not exceed n")
	}
	if EstimateCardinality(1, 4) < 1 {
		t.Fatal("estimate must be at least 1 for n ≥ 1")
	}
	// Monotone in d for fixed large n.
	if EstimateCardinality(1e6, 5) <= EstimateCardinality(1e6, 3) {
		t.Fatal("more dimensions must not shrink the estimate at large n")
	}
}

func TestKungAlpha(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 7: 5}
	for d, want := range cases {
		if got := KungAlpha(d); got != want {
			t.Errorf("KungAlpha(%d) = %g, want %g", d, got, want)
		}
	}
}

func TestAntiCorrelatedLargeSkyline(t *testing.T) {
	// On an anti-diagonal in 2D every point is in the skyline.
	n := 50
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i), float64(n - i)}
	}
	if got := Compute(pts); len(got) != n {
		t.Fatalf("got %d of %d anti-diagonal points", len(got), n)
	}
}
