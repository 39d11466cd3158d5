package join

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"progxe/internal/relation"
)

func tuples(keys ...int64) []relation.Tuple {
	out := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		out[i] = relation.Tuple{ID: int64(i), JoinKey: k}
	}
	return out
}

func collect(f func([]relation.Tuple, []relation.Tuple, Emit) int, l, r []relation.Tuple) []Pair {
	var out []Pair
	f(l, r, func(a, b int) bool {
		out = append(out, Pair{a, b})
		return true
	})
	return out
}

func brute(l, r []relation.Tuple) []Pair {
	var out []Pair
	for i, a := range l {
		for j, b := range r {
			if a.JoinKey == b.JoinKey {
				out = append(out, Pair{i, j})
			}
		}
	}
	return out
}

func sortPairs(p []Pair) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].L != p[j].L {
			return p[i].L < p[j].L
		}
		return p[i].R < p[j].R
	})
}

func TestHashMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 5))
	f := func() bool {
		l := tuples(randKeys(r, r.IntN(30))...)
		rt := tuples(randKeys(r, r.IntN(30))...)
		got := collect(Hash, l, rt)
		want := brute(l, rt)
		sortPairs(got)
		sortPairs(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randKeys(r *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.IntN(8))
	}
	return keys
}

func TestEmptyInputs(t *testing.T) {
	if n := Hash(nil, tuples(1), func(int, int) bool { return true }); n != 0 {
		t.Fatal("empty left must produce nothing")
	}
	if n := Hash(tuples(1), nil, func(int, int) bool { return true }); n != 0 {
		t.Fatal("empty right must produce nothing")
	}
}

func TestEarlyStop(t *testing.T) {
	l := tuples(1, 1, 1)
	r := tuples(1, 1, 1)
	seen := 0
	n := Hash(l, r, func(int, int) bool {
		seen++
		return seen < 4
	})
	if n != 4 || seen != 4 {
		t.Fatalf("early stop: n=%d seen=%d", n, seen)
	}
}

func TestCardinalityAndSelectivity(t *testing.T) {
	l := tuples(1, 1, 2, 3)
	r := tuples(1, 2, 2, 9)
	// matches: two 1s × one 1 = 2; one 2 × two 2s = 2 → 4 total.
	if got := Cardinality(l, r); got != 4 {
		t.Fatalf("Cardinality = %d", got)
	}
	want := 4.0 / 16.0
	if got := Selectivity(l, r); got != want {
		t.Fatalf("Selectivity = %g, want %g", got, want)
	}
	if Selectivity(nil, r) != 0 || Cardinality(l, nil) != 0 {
		t.Fatal("empty inputs must report zero")
	}
}

func TestHashDeterministicOrder(t *testing.T) {
	l := tuples(2, 1, 2)
	r := tuples(2, 2, 1)
	a := collect(Hash, l, r)
	b := collect(Hash, l, r)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hash join emission order must be deterministic")
	}
	// Left-outer order: pairs grouped by ascending left index.
	for i := 1; i < len(a); i++ {
		if a[i].L < a[i-1].L {
			t.Fatalf("pairs not in left order: %v", a)
		}
	}
}
