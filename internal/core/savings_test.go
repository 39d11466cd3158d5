package core

import (
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// TestComparisonSavings quantifies the §III-B claim: confining dominance
// comparisons to the comparable slice cells (after look-ahead marking) needs
// far fewer comparisons than a naive all-pairs skyline over the same join
// results. The naive count for an incremental BNL is Σ |window| at each
// insertion; we bound it from below by the final skyline size times the
// number of mapped results that undergo comparisons.
func TestComparisonSavings(t *testing.T) {
	p := smokeProblem(t, 1500, 4, datagen.AntiCorrelated, 0.01, 13)
	var sink smj.Collector
	stats, err := New(Options{}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JoinResults == 0 || stats.ResultCount == 0 {
		t.Fatalf("degenerate workload: %+v", stats)
	}
	// Lower bound on a naive incremental skyline's comparisons: every one
	// of the J join results is compared against at least the tuples that
	// end up in the skyline (conservatively half of them on average).
	naiveLower := stats.JoinResults * stats.ResultCount / 2
	if stats.DomComparisons >= naiveLower {
		t.Fatalf("slice-confined comparisons (%d) not below naive lower bound (%d)",
			stats.DomComparisons, naiveLower)
	}
	ratio := float64(naiveLower) / float64(stats.DomComparisons)
	if ratio < 2 {
		t.Fatalf("expected ≥2× comparison savings, got %.1f× (%d vs %d)",
			ratio, stats.DomComparisons, naiveLower)
	}
	t.Logf("comparisons: ProgXe %d vs naive ≥%d (%.0f× saved); %d of %d mapped results discarded without any test",
		stats.DomComparisons, naiveLower, ratio, stats.MappedDiscarded, stats.JoinResults)
}

// TestLookAheadPrunesWork verifies that the abstraction-level machinery
// actually fires on a workload where it should: correlated data gives
// regions that dominate one another, so look-ahead pruning, cell marking and
// mid-run region discards must all be non-zero.
func TestLookAheadPrunesWork(t *testing.T) {
	p := smokeProblem(t, 2000, 2, datagen.Correlated, 0.02, 17)
	var sink smj.Collector
	stats, err := New(Options{}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegionsPruned == 0 && stats.RegionsDropped == 0 {
		t.Fatalf("no regions eliminated on correlated data: %+v", stats)
	}
	if stats.CellsMarked == 0 {
		t.Fatalf("no cells marked on correlated data: %+v", stats)
	}
	// The pruning must translate into skipped join work: fewer join results
	// materialized than the full σ·N² expectation.
	full := 0
	counts := map[int64]int{}
	for _, tu := range p.Left.Tuples {
		counts[tu.JoinKey]++
	}
	for _, tu := range p.Right.Tuples {
		full += counts[tu.JoinKey]
	}
	if stats.JoinResults >= full {
		t.Fatalf("look-ahead did not skip any join work: %d of %d", stats.JoinResults, full)
	}
	t.Logf("join results: %d of %d possible (%.0f%% skipped); regions pruned=%d dropped=%d of %d",
		stats.JoinResults, full, 100*(1-float64(stats.JoinResults)/float64(full)),
		stats.RegionsPruned, stats.RegionsDropped, stats.Regions)
	_ = preference.Lowest
}
