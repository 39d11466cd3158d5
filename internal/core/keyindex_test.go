package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/join"
	"progxe/internal/mapping"
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
// tuple. Several partitions are built in one call so the shared column
// backing is exercised too; a tuple's ID is its build position, which is how
// the rows — stored in key-group order — are read back as join.Hash's r.
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
			right := make([][]relation.Tuple, 1+rng.IntN(4))
			for i := range right {
				right[i] = tuples(rng.IntN(80), 1, shape.key) // 0: empty right side
			}
			lpart := testPartitions(mapping.Left, 1, left)[0]
			parts := testPartitions(mapping.Right, 1, right...)
			dir := newKeyDirectory(parts)
			card := make([]int, len(parts))
			dir.addJoinCardinalities(lpart.jkeys, card)
			for pi, p := range parts {
				var want, got []join.Pair
				join.Hash(left, right[pi], func(l, r int) bool {
					want = append(want, join.Pair{L: l, R: r})
					return true
				})
				for li, key := range lpart.jkeys {
					lo, hi := p.keys.lookup(key)
					for k := lo; k < hi; k++ {
						got = append(got, join.Pair{L: li, R: int(p.ids[k])})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d: index enumerates %v, join.Hash %v", shape.name, trial, got, want)
				}
				if want := join.Cardinality(left, right[pi]); card[pi] != want {
					t.Fatalf("%s trial %d: directory cardinality %d, join.Cardinality %d", shape.name, trial, card[pi], want)
				}
				if p.len() != len(right[pi]) || p.jkeys != nil || len(p.keys.slots) > 2*p.len() {
					t.Fatalf("%s trial %d: partition of %d tuples holds %d rows, %d keys, %d slots", shape.name, trial, len(right[pi]), p.len(), len(p.jkeys), len(p.keys.slots))
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
		for _, key := range bp.a.jkeys {
			lo, hi := bp.b.keys.lookup(key)
			n += int(hi - lo)
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

// BenchmarkKeyIndexBuild measures grouping and indexing one side's scattered
// partitions — what a prepare pays once per plan in place of per-tuple
// signature-map increments and per-region hash builds. Every iteration first
// restores the scattered columns from a copy (three memmoves, on the clock);
// BenchmarkPartitionInput times the scatter itself.
func BenchmarkKeyIndexBuild(b *testing.B) {
	pl := planFixture(b)
	partOf := map[int64]int{}
	for pi, p := range pl.rparts {
		for _, id := range p.ids {
			partOf[id] = pi
		}
	}
	right := pl.problem.Right
	members := make([][]relation.Tuple, len(pl.rparts))
	for _, tu := range right.Tuples {
		members[partOf[tu.ID]] = append(members[partOf[tu.ID]], tu)
	}
	// The left side's form is the scattered, ungrouped one.
	scattered := testPartitions(mapping.Left, right.Schema.Arity(), members...)
	work := testPartitions(mapping.Left, right.Schema.Arity(), members...)
	keys := make([][]int64, len(work))
	for i, w := range work {
		keys[i] = w.jkeys
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, w := range work {
			w.jkeys = keys[pi]
			copy(w.ids, scattered[pi].ids)
			copy(w.jkeys, scattered[pi].jkeys)
			copy(w.vals, scattered[pi].vals)
		}
		groupByKey(work)
	}
}

// BenchmarkPartitionInput measures one side's whole partitioning — bound,
// count, scatter and, on the right side, key grouping — at the benchmark's
// largest engine input (N=40K, d=4).
func BenchmarkPartitionInput(b *testing.B) {
	p := smokeProblem(b, 40000, 4, datagen.Independent, 0.001, 5)
	for _, method := range []Partitioning{PartitionGrid, PartitionKD} {
		for _, side := range []mapping.Side{mapping.Left, mapping.Right} {
			rel := p.Left
			if side == mapping.Right {
				rel = p.Right
			}
			e := New(Options{Partitioning: method})
			b.Run(fmt.Sprintf("%s/%s", method, map[mapping.Side]string{mapping.Left: "left", mapping.Right: "right"}[side]), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					parts, err := e.partition(rel, p.Maps, side)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += len(parts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rel.Tuples)), "ns/tuple")
			})
		}
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
