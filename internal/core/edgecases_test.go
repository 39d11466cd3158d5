package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

func emptyProblem(t *testing.T, leftN, rightN int) *smj.Problem {
	t.Helper()
	l := relation.New(relation.MustSchema("L", []string{"a", "b"}, "k"))
	r := relation.New(relation.MustSchema("R", []string{"c", "d"}, "k"))
	for i := 0; i < leftN; i++ {
		l.MustAppend(relation.Tuple{ID: int64(i), Vals: []float64{float64(i), float64(i)}, JoinKey: 1})
	}
	for i := 0; i < rightN; i++ {
		r.MustAppend(relation.Tuple{ID: int64(i), Vals: []float64{float64(i), float64(i)}, JoinKey: 1})
	}
	return &smj.Problem{
		Left:  l,
		Right: r,
		Maps: mapping.MustSet(
			mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
			mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
		),
		Pref: preference.AllLowest(2),
	}
}

func TestEmptyInputs(t *testing.T) {
	for _, c := range []struct{ l, r int }{{0, 0}, {0, 5}, {5, 0}} {
		p := emptyProblem(t, c.l, c.r)
		var sink smj.Collector
		stats, err := New(Options{}).Run(p, &sink)
		if err != nil {
			t.Fatalf("(%d,%d): %v", c.l, c.r, err)
		}
		if len(sink.Results) != 0 || stats.ResultCount != 0 {
			t.Fatalf("(%d,%d): produced %d results from empty input", c.l, c.r, len(sink.Results))
		}
	}
}

func TestSingleTuplePair(t *testing.T) {
	p := emptyProblem(t, 1, 1)
	var sink smj.Collector
	if _, err := New(Options{}).Run(p, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 1 {
		t.Fatalf("want exactly 1 result, got %d", len(sink.Results))
	}
	if sink.Results[0].Out[0] != 0 || sink.Results[0].Out[1] != 0 {
		t.Fatalf("result = %v", sink.Results[0])
	}
}

func TestNoJoinPartners(t *testing.T) {
	p := emptyProblem(t, 3, 3)
	for i := range p.Right.Tuples {
		p.Right.Tuples[i].JoinKey = 99 // disjoint keys
	}
	var sink smj.Collector
	stats, err := New(Options{}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 0 || stats.JoinResults != 0 {
		t.Fatalf("disjoint keys must yield nothing: %d results, %d joins", len(sink.Results), stats.JoinResults)
	}
}

func TestAllIdenticalTuples(t *testing.T) {
	p := emptyProblem(t, 4, 4)
	for i := range p.Left.Tuples {
		p.Left.Tuples[i].Vals = []float64{7, 7}
	}
	for i := range p.Right.Tuples {
		p.Right.Tuples[i].Vals = []float64{3, 3}
	}
	var sink smj.Collector
	if _, err := New(Options{}).Run(p, &sink); err != nil {
		t.Fatal(err)
	}
	// All 16 join results tie: every one is in the skyline.
	if len(sink.Results) != 16 {
		t.Fatalf("ties must all survive: got %d of 16", len(sink.Results))
	}
}

func TestOneSidedMapping(t *testing.T) {
	// Mapping functions referencing only the left side: the right side
	// contributes only join keys, and forms a single partition.
	p := emptyProblem(t, 10, 5)
	p.Maps = mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.A(mapping.Left, 0, "")},
		mapping.Func{Name: "y", Expr: mapping.A(mapping.Left, 1, "")},
	)
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var sink smj.Collector
	if _, err := New(Options{}).Run(p, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != len(oracle) {
		t.Fatalf("one-sided mapping: %d vs oracle %d", len(sink.Results), len(oracle))
	}
}

func TestConstantMappingDimension(t *testing.T) {
	// One output dimension is constant: dominance degenerates to the other
	// dimension; the engine must still agree with the oracle.
	p := emptyProblem(t, 8, 8)
	p.Maps = mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
		mapping.Func{Name: "c", Expr: mapping.Const(5)},
	)
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var sink smj.Collector
	if _, err := New(Options{}).Run(p, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != len(oracle) {
		t.Fatalf("constant dim: %d vs oracle %d", len(sink.Results), len(oracle))
	}
}

func TestHighestPreferenceEndToEnd(t *testing.T) {
	p := emptyProblem(t, 10, 10)
	p.Pref = preference.NewPareto(
		preference.Attribute{Name: "x", Order: preference.Lowest},
		preference.Attribute{Name: "y", Order: preference.Highest},
	)
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var sink smj.Collector
	if _, err := New(Options{}).Run(p, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != len(oracle) {
		t.Fatalf("HIGHEST: %d vs oracle %d", len(sink.Results), len(oracle))
	}
	// Orientation preserved: emitted Out vectors are in the original
	// (non-negated) space.
	for _, r := range sink.Results {
		if r.Out[1] < 0 {
			t.Fatalf("decanonicalization failed: %v", r.Out)
		}
	}
}

func TestExtremeGridOptions(t *testing.T) {
	p := emptyProblem(t, 30, 30)
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{InputCells: 1, OutputCells: 1},
		{InputCells: 1, OutputCells: 64},
		{InputCells: 8, OutputCells: 2},
	} {
		var sink smj.Collector
		if _, err := New(opts).Run(p, &sink); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(sink.Results) != len(oracle) {
			t.Fatalf("%+v: %d vs oracle %d", opts, len(sink.Results), len(oracle))
		}
	}
}

func TestEngineNames(t *testing.T) {
	cases := map[string]Options{
		"ProgXe":             {},
		"ProgXe+":            {PushThrough: true},
		"ProgXe (No-Order)":  {Ordering: OrderRandom},
		"ProgXe+ (No-Order)": {Ordering: OrderArrival, PushThrough: true},
	}
	for want, opts := range cases {
		if got := New(opts).Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", opts, got, want)
		}
	}
	for _, o := range []Ordering{OrderProgressive, OrderRandom, OrderArrival, Ordering(9)} {
		if o.String() == "" {
			t.Fatalf("Ordering(%d) renders empty", o)
		}
	}
}

func TestInvalidProblem(t *testing.T) {
	p := emptyProblem(t, 1, 1)
	p.Pref = preference.AllLowest(5) // arity mismatch
	if _, err := New(Options{}).Run(p, &smj.Collector{}); err == nil {
		t.Fatal("invalid problem must error")
	}
}

func TestAutoCells(t *testing.T) {
	if autoCells(10, 4) != 1 {
		t.Fatalf("tiny input must use one cell, got %d", autoCells(10, 4))
	}
	if g := autoCells(100000, 1); g != 8 {
		t.Fatalf("1-d cap = %d, want 8", g)
	}
	if g := autoCells(5000, 4); g < 2 || g > 3 {
		t.Fatalf("4-d mid-size g = %d", g)
	}
	if autoOutputCells(2) != 64 || autoOutputCells(4) != 8 || autoOutputCells(5) != 5 {
		t.Fatalf("auto output cells: %d %d %d", autoOutputCells(2), autoOutputCells(4), autoOutputCells(5))
	}
}

// TestUncoveredJoinRowFailsRun truncates every region's enclosure to a point
// on one of the output space's two extreme corners, so the regions' cell
// covers no longer contain the cells their join rows map to. Such a row
// cannot be placed; the run must fail instead of returning a short skyline.
func TestUncoveredJoinRowFailsRun(t *testing.T) {
	p := smokeProblem(t, 400, 2, datagen.Independent, 0.05, 5)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(Options{InputCells: 2, Workers: workers})
			pl, err := e.PrepareContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.blueprints) < 2 {
				t.Fatalf("plan has %d regions, want several", len(pl.blueprints))
			}
			lo := slices.Clone(pl.blueprints[0].rect.Lower)
			hi := slices.Clone(pl.blueprints[0].rect.Upper)
			for _, bp := range pl.blueprints {
				for i := range lo {
					lo[i] = min(lo[i], bp.rect.Lower[i])
					hi[i] = max(hi[i], bp.rect.Upper[i])
				}
			}
			for i := range pl.blueprints {
				corner := lo
				if i%2 == 1 {
					corner = hi
				}
				pl.blueprints[i].rect = grid.Rect{Lower: corner, Upper: corner}
			}
			var sink smj.Collector
			_, err = e.RunPlanContext(context.Background(), pl, &sink)
			if err == nil || !strings.Contains(err.Error(), "invariant violation") {
				t.Fatalf("run over truncated cell covers returned %d results, err = %v; want an invariant violation", len(sink.Results), err)
			}
		})
	}
}
