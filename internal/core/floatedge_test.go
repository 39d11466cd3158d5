package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// batchPipelines are the engine's two tuple-level paths: the serial protocol
// and pooled workers. Each cuts its dominance scans off by coordinate sum.
var batchPipelines = []struct {
	name string
	opts Options
}{
	{"serial", Options{}},
	{"workers", Options{Workers: 2}},
}

// requireOracleAnswer demands the run's emissions be exactly the naive
// skyline: the same pairs, each once, with bit-identical vectors.
func requireOracleAnswer(t *testing.T, label string, p *smj.Problem, opts Options) {
	t.Helper()
	want, err := baseline.Oracle(p)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	var got smj.Collector
	if _, err := New(opts).Run(p, &got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameSet(t, label, got.Results, want)
	out := make(map[[2]int64][]float64, len(got.Results))
	for _, r := range got.Results {
		out[r.Key()] = r.Out
	}
	for _, w := range want {
		for i, x := range w.Out {
			if math.Float64bits(out[w.Key()][i]) != math.Float64bits(x) {
				t.Fatalf("%s: pair (%d,%d) dim %d: got %v want %v", label, w.LeftID, w.RightID, i, out[w.Key()][i], x)
			}
		}
	}
}

// TestBatchRoundedSumTie is the smallest input on which a strict sum cutoff
// emits a dominated tuple: (1e16, 0) dominates (1e16, 1) and both coordinate
// sums round to 1e16. The dominator arrives first in one order (the victim
// must be rejected on insert) and last in the other (it must be evicted).
func TestBatchRoundedSumTie(t *testing.T) {
	if big := 1e16; big+1 != big {
		t.Fatal("1e16 + 1 is expected to round to 1e16")
	}
	for _, left := range [][][]float64{
		{{1e16, 0}, {1e16, 1}, {0, 5}},
		{{1e16, 1}, {1e16, 0}, {0, 5}},
	} {
		p := edgeProblem(left, [][]float64{{0, 0}})
		for _, pipe := range batchPipelines {
			requireOracleAnswer(t, fmt.Sprintf("%v %s", left, pipe.name), p, pipe.opts)
		}
	}
}

// TestBatchFloatEdges is the batch twin of TestLiveSpaceFloatEdges:
// relations drawn from a small pool of awkward values — signed zeros,
// duplicates, exact ties, magnitudes at which coordinate sums lose
// precision, and ±4e307, on whose wide grids the nominal cell edge
// lo + c·w can lie above values Grid.Coord puts in that cell — must give the
// naive skyline through every pipeline, with one region and with several.
func TestBatchFloatEdges(t *testing.T) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, 1, 2, 3, 0.1, 0.2, 0.30000000000000004,
		1e16, 1e16, 1e16 + 2, -1e16, 1e-300, 5e15, 5e15 + 1, 4e307, -4e307,
	}
	seeds := uint64(48)
	if testing.Short() {
		seeds = 12
	}
	for seed := uint64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xed9e))
		d := 2 + int(seed%2)
		draw := func(id int64) relation.Tuple {
			vals := make([]float64, d)
			for i := range vals {
				vals[i] = pool[rng.IntN(len(pool))]
			}
			return relation.Tuple{ID: id, Vals: vals, JoinKey: int64(rng.IntN(2))}
		}
		p := liveProblem(t, 1, d, datagen.Independent, 1, 1) // for its schemas and sum mapping
		if seed%3 == 2 {
			attrs := p.Pref.Attributes()
			attrs[0].Order = preference.Highest
			p.Pref = preference.NewPareto(attrs...)
		}
		p.Left.Tuples, p.Right.Tuples = nil, nil
		for id := int64(1); id <= 24; id++ {
			p.Left.Tuples = append(p.Left.Tuples, draw(id))
			p.Right.Tuples = append(p.Right.Tuples, draw(id))
		}
		for _, pipe := range batchPipelines {
			for _, shape := range []Options{{}, {InputCells: 3, OutputCells: 4}, {Partitioning: PartitionKD, InputCells: 2}} {
				opts := pipe.opts
				opts.InputCells, opts.OutputCells, opts.Partitioning = shape.InputCells, shape.OutputCells, shape.Partitioning
				requireOracleAnswer(t, fmt.Sprintf("seed %d %s %+v", seed, pipe.name, shape), p, opts)
			}
		}
	}
}
