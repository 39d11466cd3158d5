package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/smj"
)

// prunedRun is everything observable about one engine run: the full
// emission stream (ids and cloned output vectors), the trace event
// sequence, and the stats block.
type prunedRun struct {
	results []string
	events  []string
	stats   smj.Stats
}

// quadraticPlan is pl with its look-ahead pruning redone by the all-pairs
// scan: the same partitions paired again, the survivors of
// grid.DominatedRectsQuadratic as blueprints.
func quadraticPlan(pl *Prepared) *Prepared {
	all, _ := pairRegions(pl.lparts, pl.rparts, pl.problem.Maps) // pl was prepared: no pair fails
	ref := *pl
	ref.blueprints, ref.pruned = nil, 0
	for i, dominated := range grid.DominatedRectsQuadratic(regionRects(all), 2) {
		if dominated {
			ref.pruned++
			continue
		}
		r := all[i]
		ref.blueprints = append(ref.blueprints, regionBlueprint{a: r.a, b: r.b, rect: r.rect, joinCard: r.joinCard})
	}
	return &ref
}

// runPrunedPlans prepares p once and runs the plan twice — as prepared
// (frontier pruning) and with the pruning redone by the all-pairs scan.
func runPrunedPlans(t *testing.T, p *smj.Problem, opts Options) (frontier, oracle prunedRun) {
	t.Helper()
	var rec *prunedRun
	opts.Trace = func(e Event) { rec.events = append(rec.events, e.String()) }
	e := New(opts)
	pl, err := e.PrepareContext(context.Background(), p)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for _, run := range []struct {
		rec *prunedRun
		pl  *Prepared
	}{{&frontier, pl}, {&oracle, quadraticPlan(pl)}} {
		rec = run.rec
		rec.stats, err = e.RunPlanContext(context.Background(), run.pl, smj.SinkFunc(func(r smj.Result) {
			rec.results = append(rec.results, fmt.Sprintf("%d|%d|%v", r.LeftID, r.RightID, r.Out))
		}))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	return frontier, oracle
}

// TestPruningPathPreservesEmissionStream pins the pruning invariant end to
// end: deciding region-level domination pruning by the frontier or by the
// retained O(n²) oracle changes nothing observable — kept/pruned counts, the
// region schedule, the trace event sequence, and the emission stream are
// byte-identical, because both mark the identical dominated set.
func TestPruningPathPreservesEmissionStream(t *testing.T) {
	workloads := []struct {
		name  string
		n, d  int
		dist  datagen.Distribution
		sigma float64
		seed  uint64
		opts  Options
	}{
		{"anti d=3", 260, 3, datagen.AntiCorrelated, 0.05, 7, Options{}},
		{"indep d=4", 220, 4, datagen.Independent, 0.05, 11, Options{}},
		{"corr d=2 kd", 300, 2, datagen.Correlated, 0.02, 13, Options{Partitioning: PartitionKD}},
		{"anti d=2 fine grid", 240, 2, datagen.AntiCorrelated, 0.05, 17, Options{InputCells: 4, OutputCells: 32}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := smokeProblem(t, w.n, w.d, w.dist, w.sigma, w.seed)
			indexed, oracle := runPrunedPlans(t, p, w.opts)
			if indexed.stats.RegionsPruned != oracle.stats.RegionsPruned {
				t.Fatalf("pruned counts diverge: frontier %d, oracle %d",
					indexed.stats.RegionsPruned, oracle.stats.RegionsPruned)
			}
			if !slices.Equal(indexed.events, oracle.events) {
				t.Fatalf("trace event sequences diverge (%d vs %d events)",
					len(indexed.events), len(oracle.events))
			}
			if !slices.Equal(indexed.results, oracle.results) {
				t.Fatalf("emission streams diverge (%d vs %d results)",
					len(indexed.results), len(oracle.results))
			}
			if indexed.stats != oracle.stats {
				t.Fatalf("stats diverge:\nfrontier %+v\noracle   %+v", indexed.stats, oracle.stats)
			}
			if indexed.stats.Regions == 0 || len(indexed.results) == 0 {
				t.Fatal("fixture produced no regions or no results; the check is vacuous")
			}
		})
	}
}

// TestPrunedRegionSetsMatch drives the region-level verdicts directly on
// the partition pairing of a real workload, forcing at least one case where
// pruning actually removes regions.
func TestPrunedRegionSetsMatch(t *testing.T) {
	p := smokeProblem(t, 400, 2, datagen.Correlated, 0.05, 23)
	cp, _, err := checkProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{InputCells: 4})
	lparts, err := e.partition(cp.Left, cp.Maps, mapping.Left)
	if err != nil {
		t.Fatal(err)
	}
	rparts, err := e.partition(cp.Right, cp.Maps, mapping.Right)
	if err != nil {
		t.Fatal(err)
	}
	all, err := pairRegions(lparts, rparts, cp.Maps)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 8 {
		t.Fatalf("fixture paired only %d regions", len(all))
	}
	idx, _ := grid.DominatedRects(regionRects(all))
	orc := grid.DominatedRectsQuadratic(regionRects(all), 2)
	if !slices.Equal(idx, orc) {
		t.Fatalf("verdicts diverge:\nfrontier %v\noracle   %v", idx, orc)
	}
	pruned := 0
	for _, d := range idx {
		if d {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("fixture pruned nothing; pick a workload where look-ahead bites")
	}
}
