package core

import (
	"fmt"
	"sort"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/smj"
)

// resultSet converts results to a canonical sorted key list for set
// comparison.
func resultSet(rs []smj.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%d|%d", r.LeftID, r.RightID)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, label string, got, want []smj.Result) {
	t.Helper()
	g, w := resultSet(got), resultSet(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d results, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: result set mismatch at %d: got %s want %s", label, i, g[i], w[i])
		}
	}
}

// TestEnginesAgreeWithOracle checks that every engine produces exactly the
// oracle result set over a grid of workloads (invariant 1 of DESIGN.md).
func TestEnginesAgreeWithOracle(t *testing.T) {
	engines := []smj.Engine{
		New(Options{}),
		New(Options{PushThrough: true}),
		New(Options{Ordering: OrderRandom, Seed: 11}),
		New(Options{Ordering: OrderRandom, PushThrough: true, Seed: 12}),
		New(Options{Ordering: OrderArrival}),
		New(Options{InputCells: 2, OutputCells: 3}),
		New(Options{InputCells: 6, OutputCells: 16}),
		New(Options{Partitioning: PartitionKD}),
		&baseline.JFSL{PushThrough: true},
		&baseline.SAJ{},
		&baseline.SSMJ{Strict: true},
	}
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	for _, dist := range dists {
		for _, d := range []int{2, 3, 4} {
			for _, sigma := range []float64{0.02, 0.1} {
				for seed := uint64(1); seed <= 3; seed++ {
					p := smokeProblem(t, 120, d, dist, sigma, seed)
					oracle, err := baseline.Oracle(p)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					for _, e := range engines {
						label := fmt.Sprintf("%s/%s/d=%d/σ=%g/seed=%d", e.Name(), dist, d, sigma, seed)
						var sink smj.Collector
						if _, err := e.Run(p, &sink); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameSet(t, label, sink.Results, oracle)
					}
				}
			}
		}
	}
}

// TestProgressiveEmissionsAreFinal checks invariant 2: every result a
// ProgXe variant emits is in the final skyline at the moment of emission —
// there are no false positives and no retractions.
func TestProgressiveEmissionsAreFinal(t *testing.T) {
	for _, push := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			p := smokeProblem(t, 150, 4, datagen.AntiCorrelated, 0.05, seed)
			oracle, err := baseline.Oracle(p)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			inOracle := make(map[[2]int64]bool, len(oracle))
			for _, r := range oracle {
				inOracle[r.Key()] = true
			}
			seen := make(map[[2]int64]bool)
			sink := smj.SinkFunc(func(r smj.Result) {
				if !inOracle[r.Key()] {
					t.Fatalf("push=%v seed=%d: emitted (%d,%d) not in final skyline", push, seed, r.LeftID, r.RightID)
				}
				if seen[r.Key()] {
					t.Fatalf("push=%v seed=%d: duplicate emission (%d,%d)", push, seed, r.LeftID, r.RightID)
				}
				seen[r.Key()] = true
			})
			if _, err := New(Options{PushThrough: push}).Run(p, sink); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(seen) != len(oracle) {
				t.Fatalf("push=%v seed=%d: emitted %d results, oracle has %d", push, seed, len(seen), len(oracle))
			}
		}
	}
}
