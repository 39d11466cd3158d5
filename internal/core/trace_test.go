package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"progxe/internal/core/sched"
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

// TestRegionOrder pins the run loop's schedule under every ordering policy,
// on an input where Line 9 discards regions: every live region is chosen or
// discarded exactly once; the chosen ids are the ablation policy's order
// with the discarded ones skipped, or, under closure picks, those of a
// replay whose every pick is brutePick's; and runs with 1, 2 and 4 prefetch
// workers choose the same sequence.
func TestRegionOrder(t *testing.T) {
	p := smokeProblem(t, 2000, 3, datagen.Independent, 0.01, 5)
	const seed = 11
	for _, ord := range []Ordering{OrderProgressive, OrderRandom, OrderArrival} {
		t.Run(ord.String(), func(t *testing.T) {
			opts := Options{Ordering: ord, Seed: seed}
			pl := preparePlan(t, p, opts)
			regions, _, _ := planSpace(t, pl, 0, 0)
			var want []int32
			switch ord {
			case OrderProgressive:
				opts := opts
				opts.Trace = func(ev Event) {
					if ev.Kind == EventRegionChosen {
						want = append(want, int32(ev.Region))
					}
				}
				r := newTestRun(t, pl, opts, smj.SinkFunc(func(smj.Result) {}))
				r.choose = func() (*cell, []int) { return brutePick(r) }
				if err := r.drain(); err != nil {
					t.Fatal(err)
				}
				if r.closure.forced == 0 {
					t.Fatal("the replay made no closure pick")
				}
			default:
				for i := range regions {
					want = append(want, int32(i))
				}
				if ord == OrderRandom {
					rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
					rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
				}
			}

			run := func(workers int) (chosen, discarded []int) {
				opts := opts
				opts.Workers = workers
				opts.Trace = func(ev Event) {
					switch ev.Kind {
					case EventRegionChosen:
						chosen = append(chosen, ev.Region)
					case EventRegionDiscarded:
						discarded = append(discarded, ev.Region)
					}
				}
				var sink smj.Collector
				if _, err := New(opts).RunPlanContext(context.Background(), pl, &sink); err != nil {
					t.Fatal(err)
				}
				return chosen, discarded
			}
			chosen, discarded := run(0)
			if len(discarded) == 0 {
				t.Fatal("no region discarded; the skip is untested")
			}
			gone := map[int]bool{}
			for _, id := range discarded {
				if gone[id] {
					t.Fatalf("region %d discarded twice", id)
				}
				gone[id] = true
			}
			var follow []int
			for _, id := range want {
				if !gone[int(id)] {
					follow = append(follow, int(id))
				}
			}
			if !slices.Equal(chosen, follow) {
				t.Fatalf("chosen %d regions %v…, want the order without the %d discarded: %v…", len(chosen), head(chosen), len(discarded), head(follow))
			}
			if len(chosen)+len(discarded) != len(regions) {
				t.Fatalf("%d chosen + %d discarded of %d regions", len(chosen), len(discarded), len(regions))
			}
			t.Logf("%d regions: %d chosen, %d discarded", len(regions), len(chosen), len(discarded))
			for _, workers := range []int{1, 2, 4} {
				pc, pd := run(workers)
				if !slices.Equal(pc, chosen) || !slices.Equal(pd, discarded) {
					t.Fatalf("workers=%d chose %v… and discarded %v…, serial %v… and %v…", workers, head(pc), head(pd), head(chosen), head(discarded))
				}
			}
		})
	}
}

func head(ids []int) []int { return ids[:min(len(ids), 8)] }

// TestPlanBoxesSchedule pins the EL-Graph scheduler's decisions over the
// engine-built region boxes of a shrunken fine-partition problem — the
// randomized brute-force test's complement with production geometry. The
// edge and root totals, the rank refreshes and an FNV-1a digest of the
// (id, rank) pop sequence cover what the benchmark's sched.* cells read; a
// change to any of them is a change of the scheduler's decisions.
func TestPlanBoxesSchedule(t *testing.T) {
	p := smokeProblem(t, 2000, 3, datagen.AntiCorrelated, 0.001, 41)
	boxes, dims, err := PlanBoxes(p, Options{Partitioning: PartitionKD, InputCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) < 200 {
		t.Fatalf("fixture produced only %d regions", len(boxes))
	}
	ranker := func(id int) float64 { // collision-rich, forcing id tie-breaks
		x := uint64(id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return float64(x % (1 << 20))
	}
	s := sched.NewProgressive(boxes, dims, ranker, 0)
	h := fnv.New64a()
	var buf [12]byte
	pops := 0
	for {
		id, rank, ok := s.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(id))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(rank))
		h.Write(buf[:])
		pops++
		s.Complete(id)
	}
	c := s.Counters()
	got := [5]uint64{uint64(pops), uint64(c.Edges), uint64(c.Roots), uint64(c.RankRefreshes), h.Sum64()}
	want := [5]uint64{719, 238948, 0, 721, 0x9619afdb7de31603}
	if got != want {
		t.Fatalf("pops, edges, roots, rank refreshes, pop digest = %v (digest %#x), want %v (digest %#x)", got, got[4], want, want[4])
	}
}
