package core

import (
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// smokeProblem builds a small randomized SkyMapJoin problem with the paper's
// standard workload shape.
func smokeProblem(t testing.TB, n, d int, dist datagen.Distribution, sigma float64, seed uint64) *smj.Problem {
	t.Helper()
	r, s, err := datagen.GeneratePair(datagen.Spec{
		N: n, Dims: d, Distribution: dist, Selectivity: sigma, Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	funcs := make([]mapping.Func, d)
	for j := 0; j < d; j++ {
		funcs[j] = mapping.Func{
			Name: r.Schema.Attrs[j],
			Expr: mapping.Sum(mapping.A(mapping.Left, j, ""), mapping.A(mapping.Right, j, "")),
		}
	}
	return &smj.Problem{
		Left:  r,
		Right: s,
		Maps:  mapping.MustSet(funcs...),
		Pref:  preference.AllLowest(d),
	}
}

func TestEngineSmoke(t *testing.T) {
	p := smokeProblem(t, 200, 3, datagen.Independent, 0.05, 7)
	var sink smj.Collector
	stats, err := New(Options{}).Run(p, &sink)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.ResultCount == 0 || len(sink.Results) == 0 {
		t.Fatalf("no results emitted (stats %+v)", stats)
	}
	if stats.ResultCount != len(sink.Results) {
		t.Fatalf("stats.ResultCount = %d, sink saw %d", stats.ResultCount, len(sink.Results))
	}
}
