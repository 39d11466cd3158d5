package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// requireEnclosed fails unless every join row of every region of pl, and
// of every candidate its partitions pair into, maps inside the region's
// rect.
func requireEnclosed(t *testing.T, label string, pl *Prepared) {
	t.Helper()
	all, err := pairRegions(pl.lparts, pl.rparts, pl.problem.Maps)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	regions := slices.Clone(pl.blueprints)
	for _, r := range all {
		regions = append(regions, regionBlueprint{a: r.a, b: r.b, rect: r.rect})
	}
	v := make([]float64, pl.d)
	for _, r := range regions {
		for li, key := range r.a.jkeys {
			lo, hi := r.b.keys.lookup(key)
			for ri := int(lo); ri < int(hi); ri++ {
				if pl.problem.Maps.Map(r.a.row(li), r.b.row(ri), v); !r.rect.Contains(v) {
					t.Fatalf("%s: left tuple %d and right tuple %d map to %v, outside their region's %v",
						label, r.a.ids[li], r.b.ids[ri], v, r.rect)
				}
			}
		}
	}
}

// TestEnclosureSoundUnderNaNSubexpressions pins the look-ahead on a mapping
// whose interval image is not an enclosure: 0·(L.c + L.c) is NaN where L.c
// is near −1e308, and MIN swallows the NaN both in the value (100 and 6,
// finite) and in the interval, which then misplaces the region. Pruning by
// such a rect dropped every region, so the run returned nothing; the exact
// box of the region's rows keeps ProgXe equal to the oracle and the live
// space.
func TestEnclosureSoundUnderNaNSubexpressions(t *testing.T) {
	l := relation.New(relation.MustSchema("L", []string{"a", "b", "c"}, "k"))
	l.MustAppend(relation.Tuple{ID: 1, Vals: []float64{0, 100, -1e308}, JoinKey: 1})
	l.MustAppend(relation.Tuple{ID: 3, Vals: []float64{0, 100, -6e307}, JoinKey: 3})
	l.MustAppend(relation.Tuple{ID: 2, Vals: []float64{10, 6, 0}, JoinKey: 2})
	r := relation.New(relation.MustSchema("R", []string{"x", "y"}, "k"))
	r.MustAppend(relation.Tuple{ID: 1, Vals: []float64{0, 5}, JoinKey: 1})
	r.MustAppend(relation.Tuple{ID: 2, Vals: []float64{10, 50}, JoinKey: 2})
	lc := mapping.A(mapping.Left, 2, "")
	p := &smj.Problem{
		Left: l, Right: r,
		Maps: mapping.MustSet(
			mapping.Func{Name: "f0", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
			mapping.Func{Name: "f1", Expr: mapping.Min{
				mapping.A(mapping.Left, 1, ""),
				mapping.Sum(mapping.A(mapping.Right, 1, ""), mapping.Scale{Factor: 0, Of: mapping.Sum(lc, lc)}),
			}},
		),
		Pref: preference.AllLowest(2),
	}
	want, err := baseline.Oracle(p)
	if err != nil || len(want) != 2 {
		t.Fatalf("oracle: %d results, %v", len(want), err)
	}
	slices.SortFunc(want, func(a, b smj.Result) int {
		return cmp.Or(cmp.Compare(a.LeftID, b.LeftID), cmp.Compare(a.RightID, b.RightID))
	})
	ls, err := NewLiveSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "live space", ls.Results(), want)
	for _, part := range []Partitioning{PartitionGrid, PartitionKD} {
		for _, pipe := range batchPipelines {
			opts := pipe.opts
			opts.Partitioning, opts.InputCells = part, 2
			label := fmt.Sprintf("%v %s", part, pipe.name)
			requireEnclosed(t, label, preparePlan(t, p, opts))
			requireOracleAnswer(t, label, p, opts)
		}
	}
}

// TestPrepareRefusesOnlyNonFiniteOutputs pins the batch engine's
// finite-output rule: a join whose attribute bounds' corners overflow,
// though none of its pairs does, runs and answers the oracle's result set,
// and once a pair overflows prepare refuses the join, naming the pair.
func TestPrepareRefusesOnlyNonFiniteOutputs(t *testing.T) {
	p := liveProblem(t, 40, 2, datagen.Independent, 0.2, 5)
	// Two huge tuples whose sum overflows, under join keys nothing else has:
	// they pair with nothing.
	p.Left.Tuples[0].Vals[0], p.Left.Tuples[0].JoinKey = math.MaxFloat64, 1<<40
	p.Right.Tuples[0].Vals[0], p.Right.Tuples[0].JoinKey = math.MaxFloat64, 1<<41
	for _, part := range []Partitioning{PartitionGrid, PartitionKD} {
		opts := Options{Partitioning: part}
		requireEnclosed(t, part.String(), preparePlan(t, p, opts))
		requireOracleAnswer(t, part.String(), p, opts)
	}

	p.Right.Tuples[0].JoinKey = p.Left.Tuples[0].JoinKey
	pair := fmt.Sprintf("left tuple %d and right tuple %d", p.Left.Tuples[0].ID, p.Right.Tuples[0].ID)
	for _, part := range []Partitioning{PartitionGrid, PartitionKD} {
		_, err := New(Options{Partitioning: part}).PrepareContext(context.Background(), p)
		if !errors.Is(err, ErrNonFiniteOutput) || !strings.Contains(err.Error(), pair) {
			t.Fatalf("%v: prepare of a join with an overflowing pair: %v, want a refusal naming %s", part, err, pair)
		}
	}
}

// TestLiveInsertRefusesNonFiniteOutput pins that an insert one of whose new
// pairs maps to a non-finite output is refused and leaves the space as it
// was: its result set, its counters and the residency of the tuple.
func TestLiveInsertRefusesNonFiniteOutput(t *testing.T) {
	ls, err := NewLiveSpace(emptyProblem(t, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	huge := []float64{1.7e308, -1.7e308}
	if err := ls.ApplyInsert(mapping.Left, relation.Tuple{ID: 100, Vals: huge, JoinKey: 9}, nil); err != nil {
		t.Fatalf("left insert without partners: %v", err)
	}
	before, stats, seq := ls.Results(), ls.Stats(), ls.nextSeq
	err = ls.ApplyInsert(mapping.Right, relation.Tuple{ID: 100, Vals: huge, JoinKey: 9}, nil)
	if !errors.Is(err, ErrNonFiniteOutput) || !strings.Contains(err.Error(), "left tuple 100 and right tuple 100") {
		t.Fatalf("right insert completing an overflowing pair: %v", err)
	}
	sameResults(t, "after the refused insert", ls.Results(), before)
	if ls.Stats() != stats || ls.nextSeq != seq || ls.Has(mapping.Right, 100) || len(ls.byBase[mapping.Left][100]) != 0 {
		t.Fatalf("the refused insert changed the space: stats %+v → %+v, seq %d → %d", stats, ls.Stats(), seq, ls.nextSeq)
	}
	// The space still applies changes, the same tuple at a finite value too.
	if err := ls.ApplyInsert(mapping.Right, relation.Tuple{ID: 100, Vals: []float64{-1.7e308, 1.7e308}, JoinKey: 9}, nil); err != nil {
		t.Fatal(err)
	}
	if got := ls.Results(); !slices.ContainsFunc(got, func(r smj.Result) bool { return r.Key() == [2]int64{100, 100} }) {
		t.Fatalf("results after a finite insert: %v, want (100,100) among them", got)
	}
}
