package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/preference"
)

// FuzzSurvivors is the property test of the shared survivor buffer: random
// insert, evict, deleteFunc and dominator calls on a survivors[int] against a
// brute-force model — the entries in insertion order, stably sorted by sum
// when compared. Values come from the float-edge pool of FuzzLiveFloatEdges:
// signed zeros, sums that round equal around 1e16, and ±4e307, whose sums
// overflow to ±Inf at d ≥ 5. After every call the buffer must equal the
// sorted model (sum order, ties in insertion order) with an exact summary;
// dominator must return the model's first dominator and test exactly the
// entries of sum ≤ s up to that hit (none when the summary refutes); evict
// must remove the model's victims, report them in buffer order, and test
// exactly the entries of sum ≥ s (none when the summary refutes).
func FuzzSurvivors(f *testing.F) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, 1, 2, 3, 0.1, 0.2, 0.30000000000000004,
		1e16, 1e16, 1e16 + 2, 1e16 - 2, -1e16, 5e15, 5e15 + 1,
		4e307, -4e307,
	}
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0x5b0f))
		d := 1 + int(seed%5)
		var b survivors[int]
		var model []survivor[int] // insertion order
		sorted := func() []survivor[int] {
			return slices.SortedStableFunc(slices.Values(model), func(x, y survivor[int]) int {
				switch {
				case x.sum < y.sum:
					return -1
				case x.sum > y.sum:
					return 1
				}
				return 0
			})
		}
		for step := 0; step < 300; step++ {
			v := make([]float64, d)
			s := 0.0
			for i := range v {
				v[i] = pool[rng.IntN(len(pool))]
				s += v[i]
			}
			want := sorted()
			lo, hi := summary(want)
			label := fmt.Sprintf("seed %d step %d v %v", seed, step, v)
			switch op := rng.IntN(8); {
			case op < 3:
				b.insert(b.firstAbove(s), survivor[int]{v: v, sum: s, p: step})
				model = append(model, survivor[int]{v: v, sum: s, p: step})
			case op < 5:
				refuted, idx, tests := len(want) == 0, -1, 0
				for i := range lo {
					refuted = refuted || lo[i] > v[i]
				}
				for j, e := range want {
					if !refuted && e.sum <= s && idx < 0 {
						tests++
					}
					if idx < 0 && preference.DominatesMin(e.v, v) {
						idx = j
					}
				}
				if refuted && idx >= 0 {
					t.Fatalf("%s: the summary refutes, but entry %d dominates", label, idx)
				}
				got := 0
				if j := b.dominator(v, s, &got); j != idx || got != tests {
					t.Fatalf("%s: dominator %d after %d tests, want %d after %d", label, j, got, idx, tests)
				}
			case op < 7:
				refuted, tests := len(want) == 0, 0
				for i := range hi {
					refuted = refuted || v[i] > hi[i]
				}
				var victims []int
				for _, e := range want {
					if !refuted && e.sum >= s {
						tests++
					}
					if preference.DominatesMin(v, e.v) {
						victims = append(victims, e.p)
					}
				}
				if refuted && len(victims) > 0 {
					t.Fatalf("%s: the summary refutes, but %v are victims", label, victims)
				}
				got, gone := 0, []int(nil)
				evicted := b.evict(v, s, &got, func(e survivor[int]) { gone = append(gone, e.p) })
				if !slices.Equal(gone, victims) || evicted != (len(victims) > 0) || got != tests {
					t.Fatalf("%s: evicted %v (%v) after %d tests, want %v after %d", label, gone, evicted, got, victims, tests)
				}
				model = slices.DeleteFunc(model, func(e survivor[int]) bool { return slices.Contains(victims, e.p) })
			default:
				k := 2 + rng.IntN(3)
				b.deleteFunc(func(p int) bool { return p%k == 0 })
				model = slices.DeleteFunc(model, func(e survivor[int]) bool { return e.p%k == 0 })
			}
			checkSurvivors(t, label, &b, sorted())
		}
	})
}

// summary returns the componentwise min and max over es.
func summary(es []survivor[int]) (lo, hi []float64) {
	if len(es) == 0 {
		return nil, nil
	}
	lo, hi = slices.Clone(es[0].v), slices.Clone(es[0].v)
	for _, e := range es[1:] {
		for i, x := range e.v {
			lo[i], hi[i] = min(lo[i], x), max(hi[i], x)
		}
	}
	return lo, hi
}

// checkSurvivors compares the buffer with the sorted model: the same entries
// in the same order, and the summary equal to the model's min and max.
func checkSurvivors(t *testing.T, label string, b *survivors[int], want []survivor[int]) {
	t.Helper()
	if len(b.ts) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(b.ts), len(want))
	}
	for j, e := range b.ts {
		if e.p != want[j].p || e.sum != want[j].sum || !slices.Equal(e.v, want[j].v) {
			t.Fatalf("%s: entry %d is %d (sum %v), want %d (sum %v)", label, j, e.p, e.sum, want[j].p, want[j].sum)
		}
	}
	lo, hi := summary(want)
	if len(want) > 0 && (!slices.Equal(b.minV, lo) || !slices.Equal(b.maxV, hi)) {
		t.Fatalf("%s: summary [%v, %v], want [%v, %v]", label, b.minV, b.maxV, lo, hi)
	}
}
