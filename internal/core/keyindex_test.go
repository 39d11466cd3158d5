package core

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/join"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// keyShapes are the join-key distributions the index property test sweeps:
// each draws one key for a tuple of the given side (0 left, 1 right).
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, side int) int64
}{
	{"duplicates", func(rng *rand.Rand, _ int) int64 { return rng.Int64N(7) }},
	{"hot key", func(rng *rand.Rand, _ int) int64 {
		if rng.IntN(10) < 9 {
			return 42
		}
		return rng.Int64N(1000)
	}},
	{"negative", func(rng *rand.Rand, _ int) int64 { return rng.Int64N(41) - 20 }},
	{"extremes", func(rng *rand.Rand, _ int) int64 {
		return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.IntN(7)]
	}},
	{"high bits only", func(rng *rand.Rand, _ int) int64 { return rng.Int64N(9) << 40 }},
	{"disjoint", func(rng *rand.Rand, side int) int64 { return 2*rng.Int64N(50) + int64(side) }},
	{"mostly unique", func(rng *rand.Rand, _ int) int64 { return rng.Int64() }},
}

// TestKeyIndexEnumeratesJoinHash is the substrate's differential property:
// over random partitions — duplicate keys, one hot key holding most tuples,
// an empty side, negative and extreme keys, disjoint key sets — probing the
// index with the left tuples in order enumerates exactly join.Hash's (l, r)
// sequence, and the side-wide key directory assembled from the partitions'
// indexes reads every partition's join.Cardinality off one probe per left
// tuple. Several partitions are indexed in one call so the shared row backing
// is exercised too.
func TestKeyIndexEnumeratesJoinHash(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2026))
	tuples := func(n, side int, key func(*rand.Rand, int) int64) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{ID: int64(i), Vals: []float64{0}, JoinKey: key(rng, side)}
		}
		return out
	}
	for _, shape := range keyShapes {
		for trial := 0; trial < 40; trial++ {
			left := tuples(rng.IntN(60), 0, shape.key) // 0: empty left side
			parts := make([]*inputPartition, 1+rng.IntN(4))
			for i := range parts {
				parts[i] = newPartition(i, 1)
				for _, tu := range tuples(rng.IntN(80), 1, shape.key) { // 0: empty right side
					parts[i].add(tu)
				}
			}
			indexKeys(parts)
			dir := newKeyDirectory(parts)
			card := make([]int, len(parts))
			dir.addJoinCardinalities(left, card)
			for pi, p := range parts {
				var want, got []join.Pair
				join.Hash(left, p.tuples, func(l, r int) bool {
					want = append(want, join.Pair{L: l, R: r})
					return true
				})
				for li := range left {
					for _, ri := range p.keys.lookup(left[li].JoinKey) {
						got = append(got, join.Pair{L: li, R: int(ri)})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d: index enumerates %v, join.Hash %v", shape.name, trial, got, want)
				}
				if want := join.Cardinality(left, p.tuples); card[pi] != want {
					t.Fatalf("%s trial %d: directory cardinality %d, join.Cardinality %d", shape.name, trial, card[pi], want)
				}
				if len(p.keys.rows) != len(p.tuples) || len(p.keys.slots) > 2*len(p.tuples) {
					t.Fatalf("%s trial %d: index of %d tuples holds %d rows, %d slots", shape.name, trial, len(p.tuples), len(p.keys.rows), len(p.keys.slots))
				}
			}
		}
	}
}

// planFixture prepares an anti-correlated d=3 plan with a few dozen regions
// and a four-digit join.
func planFixture(tb testing.TB) *Prepared {
	tb.Helper()
	pl, err := New(Options{}).PrepareContext(context.Background(), smokeProblem(tb, 1500, 3, datagen.AntiCorrelated, 0.02, 99))
	if err != nil {
		tb.Fatal(err)
	}
	if live, _ := pl.Regions(); live < 8 {
		tb.Fatalf("fixture has only %d regions", live)
	}
	return pl
}

// TestConcurrentRunsShareOnePlan runs 8 concurrent RunPlanContext calls —
// serial and Workers: 2 — over ONE Prepared plan and requires every stream
// and every counter to equal a solo run's: the plan-resident key index is
// read by all of them (and by their prefetch workers) without
// synchronization, which -race checks here.
func TestConcurrentRunsShareOnePlan(t *testing.T) {
	pl := planFixture(t)
	run := func(e *Engine) ([]smj.Result, smj.Stats, error) {
		var got []smj.Result
		stats, err := e.RunPlanContext(context.Background(), pl, smj.SinkFunc(func(r smj.Result) {
			got = append(got, smj.Result{LeftID: r.LeftID, RightID: r.RightID, Out: slices.Clone(r.Out)})
		}))
		return got, stats, err
	}
	engines := []*Engine{New(Options{}), New(Options{Workers: 2})}
	solo := make([][]smj.Result, len(engines))
	soloStats := make([]smj.Stats, len(engines))
	for i, e := range engines {
		var err error
		if solo[i], soloStats[i], err = run(e); err != nil {
			t.Fatal(err)
		}
		if len(solo[i]) == 0 {
			t.Fatal("fixture emits nothing")
		}
	}
	if !sameRuns(solo[0], solo[1]) {
		t.Fatal("serial and parallel solo runs of the plan diverge")
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got, stats, err := run(engines[k%2])
			if err != nil {
				t.Errorf("run %d: %v", k, err)
				return
			}
			if !sameRuns(got, solo[k%2]) {
				t.Errorf("run %d: stream diverges from the solo run", k)
			}
			if stats != soloStats[k%2] {
				t.Errorf("run %d: stats %+v, solo %+v", k, stats, soloStats[k%2])
			}
		}(k)
	}
	wg.Wait()
}

// joinAllRegions enumerates every region's join of the plan through the key
// index, returning the number of results.
func joinAllRegions(pl *Prepared) int {
	n := 0
	for i := range pl.blueprints {
		bp := &pl.blueprints[i]
		for li := range bp.a.tuples {
			n += len(bp.b.keys.lookup(bp.a.tuples[li].JoinKey))
		}
	}
	return n
}

// TestRegionJoinZeroAlloc is the allocation guard of the join substrate:
// enumerating every region's join of a prepared plan allocates nothing —
// no table build, no per-key slice, no closure.
func TestRegionJoinZeroAlloc(t *testing.T) {
	pl := planFixture(t)
	want := 0
	for _, bp := range pl.blueprints {
		want += bp.joinCard
	}
	if got := joinAllRegions(pl); got != want || got == 0 {
		t.Fatalf("index enumerates %d join results, blueprints say %d", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { joinAllRegions(pl) }); allocs != 0 {
		t.Fatalf("joining every region allocates %.1f times, want 0", allocs)
	}
}

var benchSink int

// BenchmarkKeyIndexBuild measures indexing one side's partitions — what a
// prepare pays once per plan in place of per-tuple signature-map increments
// and per-region hash builds.
func BenchmarkKeyIndexBuild(b *testing.B) {
	pl := planFixture(b)
	parts := make([]*inputPartition, len(pl.rparts)) // the plan's own stay read-only
	for i, p := range pl.rparts {
		parts[i] = &inputPartition{tuples: p.tuples}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexKeys(parts)
	}
}

// BenchmarkRegionJoin measures enumerating every region's join of a plan
// through the index (one iteration = all regions).
func BenchmarkRegionJoin(b *testing.B) {
	pl := planFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += joinAllRegions(pl)
	}
}
