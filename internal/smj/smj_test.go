package smj

import (
	"math"
	"testing"

	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
)

func testProblem(t *testing.T) *Problem {
	t.Helper()
	l := relation.New(relation.MustSchema("L", []string{"a", "b"}, "k"))
	r := relation.New(relation.MustSchema("R", []string{"c", "d"}, "k"))
	l.MustAppend(relation.Tuple{ID: 1, Vals: []float64{1, 2}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 2, Vals: []float64{3, 4}, JoinKey: 2})
	r.MustAppend(relation.Tuple{ID: 10, Vals: []float64{5, 6}, JoinKey: 1})
	return &Problem{
		Left:  l,
		Right: r,
		Maps: mapping.MustSet(
			mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
			mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
		),
		Pref: preference.AllLowest(2),
	}
}

func TestValidate(t *testing.T) {
	p := testProblem(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *p
	bad.Left = nil
	if bad.Validate() == nil {
		t.Fatal("nil relation must error")
	}
	bad = *p
	bad.Maps = nil
	if bad.Validate() == nil {
		t.Fatal("nil maps must error")
	}
	bad = *p
	bad.Pref = nil
	if bad.Validate() == nil {
		t.Fatal("nil preference must error")
	}
	bad = *p
	bad.Pref = preference.AllLowest(3)
	if bad.Validate() == nil {
		t.Fatal("arity mismatch must error")
	}
	bad = *p
	bad.Maps = mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.A(mapping.Left, 7, "")},
		mapping.Func{Name: "y", Expr: mapping.Const(0)},
	)
	if bad.Validate() == nil {
		t.Fatal("out-of-range attribute must error")
	}
}

func TestCanonicalized(t *testing.T) {
	p := testProblem(t)
	cp, err := p.Canonicalized()
	if err != nil {
		t.Fatal(err)
	}
	if cp != p {
		t.Fatal("already-canonical problem must be returned unchanged")
	}

	p.Pref = preference.NewPareto(
		preference.Attribute{Name: "x", Order: preference.Lowest},
		preference.Attribute{Name: "y", Order: preference.Highest},
	)
	cp, err = p.Canonicalized()
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Pref.Canonical() {
		t.Fatal("canonicalized preference must minimize everything")
	}
	// The HIGHEST dimension is negated in the mapping.
	orig := p.Maps.Map([]float64{1, 2}, []float64{5, 6}, make([]float64, 2))
	canon := cp.Maps.Map([]float64{1, 2}, []float64{5, 6}, make([]float64, 2))
	if canon[0] != orig[0] || canon[1] != -orig[1] {
		t.Fatalf("canonical map = %v, original = %v", canon, orig)
	}
	// Decanonicalize restores the original orientation.
	back := Decanonicalize(p.Pref, []float64{canon[0], canon[1]})
	if back[0] != orig[0] || math.Abs(back[1]-orig[1]) > 1e-12 {
		t.Fatalf("decanonicalize = %v, want %v", back, orig)
	}
}

func TestApply(t *testing.T) {
	p := testProblem(t)
	q := Apply(p, relation.AttrCmp{Attr: "a", Op: LTConst, Const: 2}, nil)
	if q.Left.Len() != 1 || q.Left.Tuples[0].ID != 1 {
		t.Fatalf("selection kept %v", q.Left.Tuples)
	}
	if q.Right.Len() != p.Right.Len() {
		t.Fatal("nil predicate must keep everything")
	}
}

// LTConst aliases relation.LT for readability in the test above.
const LTConst = relation.LT

func TestSinks(t *testing.T) {
	var c Collector
	c.Emit(Result{LeftID: 1, RightID: 2})
	if len(c.Results) != 1 {
		t.Fatal("collector must store results")
	}
	called := false
	SinkFunc(func(Result) { called = true }).Emit(Result{})
	if !called {
		t.Fatal("SinkFunc must invoke the function")
	}
	if (Result{LeftID: 3, RightID: 4}).Key() != [2]int64{3, 4} {
		t.Fatal("result key wrong")
	}
}

func TestPushThroughKeepsSkylineContributors(t *testing.T) {
	// Two tuples with the same key: (1,1) dominates (2,2); a third with a
	// different key must be untouched even though (1,1) beats it.
	l := relation.New(relation.MustSchema("L", []string{"a", "b"}, "k"))
	l.MustAppend(relation.Tuple{ID: 1, Vals: []float64{1, 1}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 2, Vals: []float64{2, 2}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 3, Vals: []float64{9, 9}, JoinKey: 2})
	maps := mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
		mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
	)
	out, pruned := PushThroughContext(l, maps, mapping.Left, nil)
	if pruned != 1 || out.Len() != 2 {
		t.Fatalf("pruned %d, kept %d", pruned, out.Len())
	}
	ids := []int64{out.Tuples[0].ID, out.Tuples[1].ID}
	if ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("kept %v, want [1 3]", ids)
	}
	// No pruning possible: relation returned unchanged (shared).
	same, n := PushThroughContext(out, maps, mapping.Left, nil)
	if n != 0 || same != out {
		t.Fatal("no-op pruning must return the input")
	}
}

func TestPushThroughMixedMonotonicityIsNoop(t *testing.T) {
	l := relation.New(relation.MustSchema("L", []string{"a"}, "k"))
	l.MustAppend(relation.Tuple{ID: 1, Vals: []float64{1}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 2, Vals: []float64{2}, JoinKey: 1})
	maps := mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.A(mapping.Left, 0, "")},
		mapping.Func{Name: "y", Expr: mapping.Scale{Factor: -1, Of: mapping.A(mapping.Left, 0, "")}},
	)
	out, n := PushThroughContext(l, maps, mapping.Left, nil)
	if n != 0 || out != l {
		t.Fatal("mixed monotonicity must disable pruning")
	}
}

// TestPushThroughWithoutPlanSkipsGrouping pins the early return of a side
// with no push-through plan — mixed monotonicity, or no attribute the
// mappings use: the input comes back as is, and the call allocates about
// as often at 100K rows as at 10K, so no key-group map is built.
func TestPushThroughWithoutPlanSkipsGrouping(t *testing.T) {
	rel := func(n int) *relation.Relation {
		r := relation.New(relation.MustSchema("L", []string{"a", "b"}, "k"))
		for i := range n {
			r.MustAppend(relation.Tuple{ID: int64(i), Vals: []float64{float64(i % 97), float64(i % 89)}, JoinKey: int64(i % 1000)})
		}
		return r
	}
	small, large := rel(10_000), rel(100_000)
	for _, c := range []struct {
		name string
		maps *mapping.Set
	}{
		{"mixed monotonicity", mapping.MustSet(
			mapping.Func{Name: "x", Expr: mapping.A(mapping.Left, 0, "")},
			mapping.Func{Name: "y", Expr: mapping.Scale{Factor: -1, Of: mapping.A(mapping.Left, 0, "")}},
		)},
		{"no used attribute", mapping.MustSet(
			mapping.Func{Name: "x", Expr: mapping.A(mapping.Right, 0, "")},
		)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if plan, err := c.maps.PushThrough(mapping.Left); err == nil && len(plan.Attrs) > 0 {
				t.Fatal("fixture has a push-through plan")
			}
			allocs := func(r *relation.Relation) float64 {
				return testing.AllocsPerRun(5, func() {
					if out, n := PushThroughContext(r, c.maps, mapping.Left, nil); out != r || n != 0 {
						t.Fatalf("got %d pruned and a new relation, want the input back", n)
					}
				})
			}
			// Grouping allocates thousands of times at either size; the
			// race detector moves the counts of the early return by a few.
			if a, b := allocs(small), allocs(large); b > a+100 {
				t.Fatalf("allocations grow with the input: %.0f at 10K rows, %.0f at 100K", a, b)
			}
		})
	}
}

func TestGroupSkylines(t *testing.T) {
	l := relation.New(relation.MustSchema("L", []string{"a", "b"}, "k"))
	l.MustAppend(relation.Tuple{ID: 0, Vals: []float64{1, 1}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 1, Vals: []float64{2, 2}, JoinKey: 1}) // dominated in group 1
	l.MustAppend(relation.Tuple{ID: 2, Vals: []float64{5, 0}, JoinKey: 1}) // incomparable survivor
	l.MustAppend(relation.Tuple{ID: 3, Vals: []float64{9, 9}, JoinKey: 2}) // alone in group 2
	maps := mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
		mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
	)
	groups := GroupSkylinesContext(l, maps, mapping.Left, nil)
	if len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("group skylines = %v", groups)
	}
}
