package mapping

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"progxe/internal/grid"
)

// q1Maps builds the mapping set of query Q1 (§I):
// tCost = R.uPrice + T.uShipCost; delay = 2·R.manTime + T.shipTime.
func q1Maps(t *testing.T) *Set {
	t.Helper()
	s, err := NewSet(
		Func{Name: "tCost", Expr: Sum(A(Left, 0, "uPrice"), A(Right, 0, "uShipCost"))},
		Func{Name: "delay", Expr: Sum(Scale{Factor: 2, Of: A(Left, 1, "manTime")}, A(Right, 1, "shipTime"))},
	)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestSetValidation(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := NewSet(Func{Name: "", Expr: Const(1)}); err == nil {
		t.Fatal("unnamed function must error")
	}
	if _, err := NewSet(Func{Name: "x", Expr: nil}); err == nil {
		t.Fatal("nil expression must error")
	}
	if _, err := NewSet(Func{Name: "x", Expr: Const(1)}, Func{Name: "x", Expr: Const(2)}); err == nil {
		t.Fatal("duplicate names must error")
	}
}

func TestQ1Eval(t *testing.T) {
	s := q1Maps(t)
	out := s.Map([]float64{10, 3}, []float64{4, 5}, make([]float64, 2))
	if out[0] != 14 || out[1] != 11 {
		t.Fatalf("Q1 map = %v, want [14 11]", out)
	}
	if s.Dims() != 2 {
		t.Fatalf("Dims = %d", s.Dims())
	}
	names := s.Names()
	if names[0] != "tCost" || names[1] != "delay" {
		t.Fatalf("Names = %v", names)
	}
}

func TestExample1RegionMapping(t *testing.T) {
	// Example 1 of the paper: input partitions IR1 [(0,4)(1,5)] and
	// IT2 [(3,1)(4,2)] under Q1's mapping functions. With the unweighted
	// delay (manTime + shipTime) of the figure, the region is
	// [b(3,5), B(5,7)]; with Q1's 2× weight the delay bounds double on the
	// manTime term.
	unweighted := MustSet(
		Func{Name: "tCost", Expr: Sum(A(Left, 0, ""), A(Right, 0, ""))},
		Func{Name: "delay", Expr: Sum(A(Left, 1, ""), A(Right, 1, ""))},
	)
	ir1 := grid.Rect{Lower: []float64{0, 4}, Upper: []float64{1, 5}}
	it2 := grid.Rect{Lower: []float64{3, 1}, Upper: []float64{4, 2}}
	r := unweighted.MapRegion(ir1, it2)
	if r.Lower[0] != 3 || r.Lower[1] != 5 {
		t.Fatalf("lower-bound point b = %v, want (3,5)", r.Lower)
	}
	if r.Upper[0] != 5 || r.Upper[1] != 7 {
		t.Fatalf("upper-bound point B = %v, want (5,7)", r.Upper)
	}

	weighted := q1Maps(t)
	rw := weighted.MapRegion(ir1, it2)
	if rw.Lower[1] != 2*4+1 || rw.Upper[1] != 2*5+2 {
		t.Fatalf("weighted delay bounds = [%g, %g]", rw.Lower[1], rw.Upper[1])
	}
}

// TestIntervalSoundness samples random tuples inside random partition boxes
// and checks every mapped point falls inside the propagated region
// (DESIGN.md invariant 5).
func TestIntervalSoundness(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	exprs := []Expr{
		Sum(A(Left, 0, ""), A(Right, 0, "")),
		Sub{L: A(Left, 1, ""), R: A(Right, 1, "")},
		Scale{Factor: -1.5, Of: A(Right, 0, "")},
		Min{A(Left, 0, ""), A(Right, 1, "")},
		Max{Scale{Factor: 2, Of: A(Left, 1, "")}, Const(3)},
		Sum(Min{A(Left, 0, ""), A(Left, 1, "")}, Scale{Factor: 0.5, Of: Sub{L: Const(10), R: A(Right, 0, "")}}),
	}
	box := func() (lo, hi []float64) {
		lo = []float64{r.Float64() * 10, r.Float64() * 10}
		hi = []float64{lo[0] + r.Float64()*5, lo[1] + r.Float64()*5}
		return
	}
	sample := func(lo, hi []float64) []float64 {
		return []float64{
			lo[0] + r.Float64()*(hi[0]-lo[0]),
			lo[1] + r.Float64()*(hi[1]-lo[1]),
		}
	}
	f := func() bool {
		ll, lh := box()
		rl, rh := box()
		for _, e := range exprs {
			lo, hi := e.Interval(ll, lh, rl, rh)
			for k := 0; k < 8; k++ {
				v := e.Eval(sample(ll, lh), sample(rl, rh))
				const eps = 1e-9
				if v < lo-eps || v > hi+eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dirOf is the combined monotonicity direction of one source attribute
// across all of the set's functions.
func dirOf(s *Set, ref AttrRef) Direction { return s.dirs[ref] }

func TestDirections(t *testing.T) {
	s := q1Maps(t)
	if d := dirOf(s, AttrRef{Left, 0}); d != StrictInc {
		t.Fatalf("uPrice direction = %s", d)
	}
	if d := dirOf(s, AttrRef{Right, 1}); d != StrictInc {
		t.Fatalf("shipTime direction = %s", d)
	}
	if d := dirOf(s, AttrRef{Left, 5}); d != Unused {
		t.Fatalf("unused attribute direction = %s", d)
	}

	// Negative scaling flips direction.
	neg := MustSet(Func{Name: "x", Expr: Scale{Factor: -2, Of: A(Left, 0, "")}})
	if d := dirOf(neg, AttrRef{Left, 0}); d != StrictDec {
		t.Fatalf("negated direction = %s", d)
	}

	// Conflicting use is mixed.
	mixed := MustSet(
		Func{Name: "x", Expr: A(Left, 0, "")},
		Func{Name: "y", Expr: Scale{Factor: -1, Of: A(Left, 0, "")}},
	)
	if d := dirOf(mixed, AttrRef{Left, 0}); d != Mixed {
		t.Fatalf("mixed direction = %s", d)
	}

	// Min/Max weaken strictness.
	weak := MustSet(Func{Name: "x", Expr: Min{A(Left, 0, ""), A(Left, 1, "")}})
	if d := dirOf(weak, AttrRef{Left, 0}); d != NonDec {
		t.Fatalf("min direction = %s", d)
	}

	// Subtraction decreases in the right operand.
	sub := MustSet(Func{Name: "x", Expr: Sub{L: A(Left, 0, ""), R: A(Left, 1, "")}})
	if d := dirOf(sub, AttrRef{Left, 1}); d != StrictDec {
		t.Fatalf("sub rhs direction = %s", d)
	}
}

func TestUsedAttrs(t *testing.T) {
	s := q1Maps(t)
	l := s.UsedAttrs(Left)
	r := s.UsedAttrs(Right)
	if len(l) != 2 || l[0] != 0 || l[1] != 1 {
		t.Fatalf("left used = %v", l)
	}
	if len(r) != 2 {
		t.Fatalf("right used = %v", r)
	}
}

func TestPushThroughPlan(t *testing.T) {
	s := q1Maps(t)
	plan, err := s.PushThrough(Left)
	if err != nil {
		t.Fatalf("PushThrough: %v", err)
	}
	// Smaller uPrice and manTime are better, strictly.
	if !plan.Dominates([]float64{1, 1}, []float64{2, 2}) {
		t.Fatal("strictly smaller must dominate")
	}
	if plan.Dominates([]float64{1, 1}, []float64{1, 1}) {
		t.Fatal("equal must not dominate")
	}
	if plan.Dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Fatal("incomparable must not dominate")
	}

	// Mixed monotonicity must refuse a plan.
	mixed := MustSet(
		Func{Name: "x", Expr: A(Left, 0, "")},
		Func{Name: "y", Expr: Scale{Factor: -1, Of: A(Left, 0, "")}},
	)
	if _, err := mixed.PushThrough(Left); err == nil {
		t.Fatal("mixed monotonicity must error")
	}

	// Decreasing attributes orient the comparison the other way.
	dec := MustSet(Func{Name: "x", Expr: Sub{L: Const(100), R: A(Left, 0, "")}})
	plan2, err := dec.PushThrough(Left)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Dominates([]float64{5}, []float64{3}) {
		t.Fatal("larger value must dominate under a decreasing map")
	}

	// Weak-only monotonicity yields a plan that never strictly dominates.
	weak := MustSet(Func{Name: "x", Expr: Min{A(Left, 0, ""), A(Left, 1, "")}})
	plan3, err := weak.PushThrough(Left)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Dominates([]float64{0, 0}, []float64{9, 9}) {
		t.Fatal("weak plan must never claim strict dominance")
	}
}

// TestIdentity maps through bare attributes — a shape Map evaluates by its
// tree, because the compiled loop's 0.0 seed would turn a -0 into +0.
func TestIdentity(t *testing.T) {
	s := MustSet(Func{Name: "a", Expr: A(Left, 0, "a")}, Func{Name: "b", Expr: A(Left, 1, "b")})
	out := s.Map([]float64{7, math.Copysign(0, -1)}, nil, make([]float64, 2))
	if out[0] != 7 || !math.Signbit(out[1]) {
		t.Fatalf("identity map = %v, want [7 -0]", out)
	}
}

func TestStrings(t *testing.T) {
	s := q1Maps(t)
	if s.String() == "" || s.Func(0).Expr.String() == "" {
		t.Fatal("expressions must render")
	}
	for _, e := range []Expr{
		Const(3), A(Left, 0, "x"), A(Right, 1, ""),
		Sum(Const(1), Const(2)), Sub{L: Const(1), R: Const(2)},
		Scale{Factor: 2, Of: Const(1)}, Min{Const(1), Const(2)}, Max{Const(1), Const(2)},
	} {
		if e.String() == "" {
			t.Fatalf("%T renders empty", e)
		}
	}
	if Left.String() != "L" || Right.String() != "R" {
		t.Fatal("side names wrong")
	}
	for d := Unused; d <= Mixed; d++ {
		if d.String() == "" {
			t.Fatalf("Direction(%d) renders empty", d)
		}
	}
}
