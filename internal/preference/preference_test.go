package preference

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestOrderString(t *testing.T) {
	if Lowest.String() != "LOWEST" || Highest.String() != "HIGHEST" {
		t.Fatalf("order names wrong: %s %s", Lowest, Highest)
	}
	if Order(9).String() == "" {
		t.Fatal("unknown order must still render")
	}
}

func TestParetoBasics(t *testing.T) {
	p := NewPareto(Attribute{"cost", Lowest}, Attribute{"rating", Highest})
	if p.Dims() != 2 {
		t.Fatalf("Dims = %d, want 2", p.Dims())
	}
	if p.Canonical() {
		t.Fatal("preference with HIGHEST must not be canonical")
	}
	if got := p.String(); got != "LOWEST(cost) AND HIGHEST(rating)" {
		t.Fatalf("String = %q", got)
	}
	if p.Attr(1).Name != "rating" {
		t.Fatalf("Attr(1) = %+v", p.Attr(1))
	}
	attrs := p.Attributes()
	attrs[0].Name = "mutated"
	if p.Attr(0).Name != "cost" {
		t.Fatal("Attributes must return a copy")
	}
}

func TestAllLowest(t *testing.T) {
	p := AllLowest(3)
	if !p.Canonical() || p.Dims() != 3 {
		t.Fatalf("AllLowest(3) = %s", p)
	}
}

func TestDominatesDefinition1(t *testing.T) {
	p := AllLowest(2)
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},  // strictly better everywhere
		{[]float64{1, 2}, []float64{1, 3}, true},  // equal + better
		{[]float64{1, 2}, []float64{1, 2}, false}, // equal: no strict dimension
		{[]float64{1, 3}, []float64{2, 2}, false}, // incomparable
		{[]float64{2, 2}, []float64{1, 1}, false}, // worse
	}
	for _, c := range cases {
		if got := p.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesWithHighest(t *testing.T) {
	p := NewPareto(Attribute{"cost", Lowest}, Attribute{"rating", Highest})
	if !p.Dominates([]float64{10, 5}, []float64{10, 4}) {
		t.Fatal("higher rating at equal cost must dominate")
	}
	if p.Dominates([]float64{10, 4}, []float64{10, 5}) {
		t.Fatal("lower rating must not dominate")
	}
}

func TestCompare(t *testing.T) {
	p := AllLowest(2)
	if r := p.Compare([]float64{1, 1}, []float64{2, 2}); r != LeftDominates {
		t.Fatalf("Compare = %s, want left-dominates", r)
	}
	if r := p.Compare([]float64{2, 2}, []float64{1, 1}); r != RightDominates {
		t.Fatalf("Compare = %s, want right-dominates", r)
	}
	if r := p.Compare([]float64{1, 2}, []float64{2, 1}); r != Incomparable {
		t.Fatalf("Compare = %s, want incomparable", r)
	}
	if r := p.Compare([]float64{3, 3}, []float64{3, 3}); r != Equal {
		t.Fatalf("Compare = %s, want equal", r)
	}
}

// TestCanonicalize: dominance under a preference with HIGHEST dimensions is
// minimizing dominance once those dimensions are negated — the rewrite
// smj.Canonicalized applies to the mapping functions.
func TestCanonicalize(t *testing.T) {
	p := NewPareto(Attribute{"a", Lowest}, Attribute{"b", Highest})
	neg := func(v []float64) []float64 { return []float64{v[0], -v[1]} }
	r := rand.New(rand.NewPCG(7, 8))
	for range 500 {
		a, b := vec3(r)[:2], vec3(r)[:2]
		if got, want := p.Dominates(a, b), DominatesMin(neg(a), neg(b)); got != want {
			t.Fatalf("Dominates(%v, %v) = %v, minimizing dominance of the negated vectors %v", a, b, got, want)
		}
	}
}

// vec3 is a bounded random vector for property tests; small integral values
// make dominance ties common enough to exercise every branch.
func vec3(r *rand.Rand) []float64 {
	return []float64{float64(r.IntN(4)), float64(r.IntN(4)), float64(r.IntN(4))}
}

func TestDominanceStrictPartialOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	// Irreflexivity and asymmetry.
	f := func() bool {
		a, b := vec3(r), vec3(r)
		if DominatesMin(a, a) {
			return false
		}
		if DominatesMin(a, b) && DominatesMin(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Transitivity.
	g := func() bool {
		a, b, c := vec3(r), vec3(r), vec3(r)
		if DominatesMin(a, b) && DominatesMin(b, c) && !DominatesMin(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareConsistentWithDominates(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 9))
	p := AllLowest(3)
	f := func() bool {
		a, b := vec3(r), vec3(r)
		switch p.Compare(a, b) {
		case LeftDominates:
			return p.Dominates(a, b) && !p.Dominates(b, a)
		case RightDominates:
			return p.Dominates(b, a) && !p.Dominates(a, b)
		case Equal, Incomparable:
			return !p.Dominates(a, b) && !p.Dominates(b, a)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestStrictHelpers(t *testing.T) {
	if !DominatesOrEqualMin([]float64{1, 2}, []float64{1, 2}) {
		t.Fatal("equal vectors are ≤")
	}
	if DominatesOrEqualMin([]float64{3, 1}, []float64{2, 2}) {
		t.Fatal("3 > 2 in dim 0")
	}
}

func TestRelationString(t *testing.T) {
	for _, r := range []Relation{Incomparable, LeftDominates, RightDominates, Equal, Relation(7)} {
		if r.String() == "" {
			t.Fatalf("Relation(%d) renders empty", r)
		}
	}
}
