package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/smj"
)

func TestTraceEvents(t *testing.T) {
	p := smokeProblem(t, 300, 3, datagen.AntiCorrelated, 0.05, 3)
	var events []Event
	e := New(Options{Trace: func(ev Event) { events = append(events, ev) }})
	var sink smj.Collector
	stats, err := e.Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	emittedResults := 0
	var chosen, processed []int
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case EventRegionChosen:
			chosen = append(chosen, ev.Region)
		case EventRegionProcessed:
			processed = append(processed, ev.Region)
		case EventCellEmitted:
			emittedResults += ev.Survivors
		}
	}
	if counts[EventRegionChosen] == 0 || counts[EventCellEmitted] == 0 {
		t.Fatalf("missing event kinds: %v", counts)
	}
	if counts[EventRegionChosen] != counts[EventRegionProcessed] {
		t.Fatalf("chosen %d != processed %d", counts[EventRegionChosen], counts[EventRegionProcessed])
	}
	// Every chosen region is processed, in order.
	for i := range chosen {
		if chosen[i] != processed[i] {
			t.Fatalf("event order broken: chosen %d processed %d", chosen[i], processed[i])
		}
	}
	// Processed + discarded = total live regions.
	if got := counts[EventRegionProcessed] + counts[EventRegionDiscarded]; got != stats.Regions-stats.RegionsPruned {
		t.Fatalf("region events %d, live regions %d", got, stats.Regions-stats.RegionsPruned)
	}
	if emittedResults != stats.ResultCount {
		t.Fatalf("cell-emitted survivors %d != results %d", emittedResults, stats.ResultCount)
	}
	// No region may be chosen twice.
	seen := map[int]bool{}
	for _, id := range chosen {
		if seen[id] {
			t.Fatalf("region %d chosen twice", id)
		}
		seen[id] = true
	}
}

func TestTraceEventStrings(t *testing.T) {
	events := []Event{
		{Kind: EventRegionChosen, Region: 1, Rank: 0.5},
		{Kind: EventRegionProcessed, Region: 1, JoinResults: 10, Survivors: 3},
		{Kind: EventRegionDiscarded, Region: 2},
		{Kind: EventCellEmitted, Cell: 7, Survivors: 2},
		{Kind: EventKind(99)},
	}
	for _, ev := range events {
		if ev.String() == "" {
			t.Fatalf("event %d renders empty", ev.Kind)
		}
	}
	if !strings.Contains(events[0].String(), "region=1") {
		t.Fatalf("chosen event = %q", events[0])
	}
	for k := EventRegionChosen; k <= EventCellEmitted; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d renders empty", k)
		}
	}
}

func TestExplain(t *testing.T) {
	p := smokeProblem(t, 500, 3, datagen.AntiCorrelated, 0.02, 9)
	plan, err := Explain(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.LeftPartitions == 0 || plan.RightPartitions == 0 {
		t.Fatalf("plan has no partitions: %+v", plan)
	}
	if plan.Regions == 0 || plan.CoveredCells == 0 {
		t.Fatalf("plan has no regions/cells: %+v", plan)
	}
	if plan.OutputCells != autoOutputCells(3) {
		t.Fatalf("auto output cells = %d", plan.OutputCells)
	}
	if plan.EstimatedJoin == 0 {
		t.Fatal("estimated join must be positive")
	}
	if !strings.Contains(plan.String(), "covered cells:") {
		t.Fatalf("plan render = %q", plan.String())
	}

	// Explain must agree with an actual run on region accounting.
	var sink smj.Collector
	stats, err := New(Options{}).Run(p, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Regions+plan.RegionsPruned != stats.Regions {
		t.Fatalf("explain regions %d+%d, run saw %d", plan.Regions, plan.RegionsPruned, stats.Regions)
	}
	// Estimated joins from exact signatures equal the materialized joins of
	// live regions... processed regions only; discarded regions skip their
	// joins, so the estimate is an upper bound.
	if stats.JoinResults > plan.EstimatedJoin {
		t.Fatalf("run joined %d > estimate %d", stats.JoinResults, plan.EstimatedJoin)
	}

	// Explain honours the push-through option.
	plan2, err := Explain(p, Options{PushThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.EstimatedJoin > plan.EstimatedJoin {
		t.Fatal("push-through cannot increase join estimate")
	}

	// Validation errors propagate.
	bad := *p
	bad.Pref = nil
	if _, err := Explain(&bad, Options{}); err == nil {
		t.Fatal("invalid problem must error")
	}
}

// TestExplainMatchesPrepared pins Explain to the engine's own look-ahead:
// under either partitioning method it reports the partitions and regions a
// real PrepareContext builds.
func TestExplainMatchesPrepared(t *testing.T) {
	p := smokeProblem(t, 2000, 3, datagen.AntiCorrelated, 0.02, 9)
	for _, opts := range []Options{
		{Partitioning: PartitionGrid, InputCells: 3},
		{Partitioning: PartitionKD, InputCells: 3},
		{Partitioning: PartitionKD},
	} {
		t.Run(fmt.Sprintf("%s/g=%d", opts.Partitioning, opts.InputCells), func(t *testing.T) {
			plan, err := Explain(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := New(opts).PrepareContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			live, pruned := pl.Regions()
			if plan.Regions != live || plan.RegionsPruned != pruned {
				t.Fatalf("explain regions %d live %d pruned, prepared plan %d live %d pruned", plan.Regions, plan.RegionsPruned, live, pruned)
			}
			if plan.LeftPartitions != len(pl.lparts) || plan.RightPartitions != len(pl.rparts) {
				t.Fatalf("explain partitions %d × %d, prepared plan %d × %d", plan.LeftPartitions, plan.RightPartitions, len(pl.lparts), len(pl.rparts))
			}
		})
	}
}
