package baseline

import (
	"fmt"
	"sort"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

func genProblem(t *testing.T, n, d int, dist datagen.Distribution, sigma float64, seed uint64) *smj.Problem {
	t.Helper()
	r, s, err := datagen.GeneratePair(datagen.Spec{N: n, Dims: d, Distribution: dist, Selectivity: sigma, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	funcs := make([]mapping.Func, d)
	for j := 0; j < d; j++ {
		funcs[j] = mapping.Func{
			Name: fmt.Sprintf("x%d", j),
			Expr: mapping.Sum(mapping.A(mapping.Left, j, ""), mapping.A(mapping.Right, j, "")),
		}
	}
	return &smj.Problem{Left: r, Right: s, Maps: mapping.MustSet(funcs...), Pref: preference.AllLowest(d)}
}

func keys(rs []smj.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%d|%d", r.LeftID, r.RightID)
	}
	sort.Strings(out)
	return out
}

func assertSame(t *testing.T, label string, got, want []smj.Result) {
	t.Helper()
	g, w := keys(got), keys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d results, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: mismatch at %d: %s vs %s", label, i, g[i], w[i])
		}
	}
}

func TestBaselinesAgree(t *testing.T) {
	engines := []smj.Engine{
		&JFSL{PushThrough: true},
		&SAJ{},
		&SSMJ{Strict: true},
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for seed := uint64(1); seed <= 4; seed++ {
			p := genProblem(t, 150, 3, dist, 0.05, seed)
			oracle, err := Oracle(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines {
				var sink smj.Collector
				if _, err := e.Run(p, &sink); err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				assertSame(t, fmt.Sprintf("%s/%s/seed=%d", e.Name(), dist, seed), sink.Results, oracle)
			}
		}
	}
}

func TestNames(t *testing.T) {
	if (&JFSL{}).Name() != "JF-SL" || (&JFSL{PushThrough: true}).Name() != "JF-SL+" {
		t.Fatal("JF-SL names wrong")
	}
	if (&SAJ{}).Name() != "SAJ" || (&SSMJ{}).Name() != "SSMJ" {
		t.Fatal("baseline names wrong")
	}
}

// TestSSMJFaithfulBatches verifies the two-batch behaviour: the faithful
// configuration emits the phase-1 skyline first and the remainder at the
// end; the union covers the oracle, with any extras being exactly the
// dominated phase-1 results counted in MappedDiscarded.
func TestSSMJFaithfulBatches(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := genProblem(t, 200, 3, datagen.Independent, 0.05, seed)
		oracle, err := Oracle(p)
		if err != nil {
			t.Fatal(err)
		}
		inOracle := map[[2]int64]bool{}
		for _, r := range oracle {
			inOracle[r.Key()] = true
		}
		var sink smj.Collector
		stats, err := (&SSMJ{}).Run(p, &sink)
		if err != nil {
			t.Fatal(err)
		}
		extras := 0
		for _, r := range sink.Results {
			if !inOracle[r.Key()] {
				extras++
			}
		}
		if extras != stats.MappedDiscarded {
			t.Fatalf("seed %d: %d emitted non-final results, stats says %d", seed, extras, stats.MappedDiscarded)
		}
		if len(sink.Results)-extras != len(oracle) {
			t.Fatalf("seed %d: missing final results: emitted %d (-%d extras), oracle %d",
				seed, len(sink.Results), extras, len(oracle))
		}
	}
}

// TestSAJEarlyTermination checks SAJ stops before exhausting both sources on
// a workload with an easy threshold (correlated data, plentiful joins) and
// still returns the correct set.
func TestSAJEarlyTermination(t *testing.T) {
	p := genProblem(t, 400, 2, datagen.Correlated, 0.2, 3)
	oracle, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	var sink smj.Collector
	stats, err := (&SAJ{}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "SAJ", sink.Results, oracle)
	full := 0
	for _, tu := range p.Left.JoinKeys() {
		for _, tv := range p.Right.JoinKeys() {
			_ = tu
			_ = tv
		}
	}
	_ = full
	// The threshold must have cut off part of the join work.
	maxJoin := len(p.Left.Tuples) * len(p.Right.Tuples) / 5 // σ=0.2
	if stats.JoinResults >= maxJoin {
		t.Fatalf("SAJ did not terminate early: %d join results (full ≈ %d)", stats.JoinResults, maxJoin)
	}
}

func TestJFSLPushThroughPrunes(t *testing.T) {
	p := genProblem(t, 300, 2, datagen.Correlated, 0.1, 2)
	var sink smj.Collector
	stats, err := (&JFSL{PushThrough: true}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PushPruned == 0 {
		t.Fatal("correlated data must allow push-through pruning")
	}
	oracle, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "JF-SL+", sink.Results, oracle)
}

func TestOracleEmptyInputs(t *testing.T) {
	p := genProblem(t, 0, 2, datagen.Independent, 0.1, 1)
	res, err := Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty inputs produced %d results", len(res))
	}
}
