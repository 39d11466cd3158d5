package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/par"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// installYieldHook randomizes goroutine interleaving for the duration of a
// test: worker loops call runtime.Gosched at pseudo-random points, so
// repeated runs explore different schedules even on a single core. The hook
// must be removed before the test ends (engine runs must not overlap hook
// changes).
func installYieldHook(t *testing.T, seed uint64) {
	t.Helper()
	var ctr atomic.Uint64
	ctr.Store(seed)
	par.YieldHook = func() {
		// splitmix64 over an atomic counter: goroutine-safe pseudo-random
		// yield decisions without shared-RNG locking.
		x := ctr.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		if x%4 == 0 {
			runtime.Gosched()
		}
	}
	t.Cleanup(func() { par.YieldHook = nil })
}

// recordRun executes one engine run and returns the emission stream and
// stats.
func recordRun(t *testing.T, p *smj.Problem, opts Options) ([]smj.Result, smj.Stats) {
	t.Helper()
	var got []smj.Result
	stats, err := New(opts).Run(p, smj.SinkFunc(func(r smj.Result) {
		got = append(got, smj.Result{LeftID: r.LeftID, RightID: r.RightID, Out: slices.Clone(r.Out)})
	}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got, stats
}

func sameRuns(a, b []smj.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LeftID != b[i].LeftID || a[i].RightID != b[i].RightID || !slices.Equal(a[i].Out, b[i].Out) {
			return false
		}
	}
	return true
}

// TestParallelDeterminism is the scheduling-pressure property test: the
// parallel engine runs the same problem repeatedly under randomized
// runtime.Gosched injection and varying GOMAXPROCS, and every run must
// reproduce the serial emission stream and the serial stats exactly.
func TestParallelDeterminism(t *testing.T) {
	p := smokeProblem(t, 500, 3, datagen.AntiCorrelated, 0.05, 1234)
	serial, serialStats := recordRun(t, p, Options{})

	for _, workers := range []int{1, 3} {
		for rep := 0; rep < 4; rep++ {
			installYieldHook(t, uint64(workers*100+rep))
			gmp := 1 + rep%3
			old := runtime.GOMAXPROCS(gmp)
			got, stats := recordRun(t, p, Options{Workers: workers})
			runtime.GOMAXPROCS(old)
			par.YieldHook = nil

			if !sameRuns(got, serial) {
				t.Fatalf("workers=%d rep=%d (GOMAXPROCS=%d): emission stream diverges from serial", workers, rep, gmp)
			}
			if stats != serialStats {
				t.Fatalf("workers=%d rep=%d: stats diverge from serial: %+v vs %+v", workers, rep, stats, serialStats)
			}
		}
	}
}

// parallelFixture builds a single-region problem with a non-trivial join
// fan-out for driving the pool's stream construction directly.
func parallelFixture(t *testing.T) (*pool, *region, *space) {
	t.Helper()
	mk := func(side mapping.Side, n int) []*inputPartition {
		members := make([]relation.Tuple, n)
		for i := range members {
			members[i] = relation.Tuple{
				ID:      int64(i),
				Vals:    []float64{float64(i%7) * 0.5, float64((i*3)%11) * 0.4},
				JoinKey: int64(i % 5),
			}
		}
		return testPartitions(side, 2, members)
	}
	left, right := mk(mapping.Left, 40), mk(mapping.Right, 35)
	regions, _, front := buildRegions(left, right, sumMaps2(), nil)
	if len(regions) != 1 || regions[0].joinCard == 0 {
		t.Fatalf("fixture: regions=%d", len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 8, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.emit = func(outTuple) {}
	return newPool(context.Background(), 1, s, regions, sumMaps2()), regions[0], s
}

// TestWorkerStreamSteadyStateZeroAlloc pins the per-worker arena guarantee:
// with the candidate buffer at capacity,
// materializing a region's stream performs no heap allocations at all —
// the parallel runner adds no per-tuple (or per-region) allocation to the
// steady state the serial arena already guarantees.
func TestWorkerStreamSteadyStateZeroAlloc(t *testing.T) {
	p, reg, _ := parallelFixture(t)
	cancel := smj.NewCanceler(context.Background())
	buf := &candBuf{}
	if n := p.mapStream(reg, buf, cancel); n != reg.joinCard { // warm: buffers
		t.Fatalf("stream produced %d candidates, want joinCard=%d", n, reg.joinCard)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.mapStream(reg, buf, cancel)
	})
	if allocs != 0 {
		t.Fatalf("steady-state stream construction allocates %.2f times per region, want 0", allocs)
	}
}

// TestMapStreamMatchesSerialOrder verifies the canonical stream order: the
// pool's candidate stream must replay join.Hash's emission order with the
// exact vectors, sums and cells of an independent replay.
func TestMapStreamMatchesSerialOrder(t *testing.T) {
	p, reg, s := parallelFixture(t)
	buf := &candBuf{}
	n := p.mapStream(reg, buf, smj.NewCanceler(context.Background()))

	var want []cand
	var wantV [][]float64
	mapBuf := make([]float64, 2)
	lt, rt := tuplesOf(reg.a), tuplesOf(reg.b)
	joinHashReplay(lt, rt, func(li, ri int) {
		v := sumMaps2().Map(lt[li].Vals, rt[ri].Vals, mapBuf)
		want = append(want, cand{
			leftID: lt[li].ID, rightID: rt[ri].ID,
			sum: sumOf(v), flat: s.g.CellOf(v),
		})
		wantV = append(wantV, slices.Clone(v))
	})
	if n != len(want) {
		t.Fatalf("stream has %d candidates, want %d", n, len(want))
	}
	for k := 0; k < n; k++ {
		g, v := buf.cands[k], buf.block[k*2:(k+1)*2]
		if g != want[k] || !slices.Equal(v, wantV[k]) {
			t.Fatalf("candidate %d diverges: %+v %v vs %+v %v", k, g, v, want[k], wantV[k])
		}
	}
}

// joinHashReplay re-implements join.Hash's deterministic emission order
// (left outer, right build order inner) as an independent cross-check.
func joinHashReplay(left, right []relation.Tuple, emit func(li, ri int)) {
	build := map[int64][]int{}
	for i, t := range right {
		build[t.JoinKey] = append(build[t.JoinKey], i)
	}
	for li, t := range left {
		for _, ri := range build[t.JoinKey] {
			emit(li, ri)
		}
	}
}

// TestParallelCancellation aborts a parallel run mid-stream and verifies
// the context error surfaces, already-emitted results are a prefix of the
// serial stream, and the pool shuts down without leaking goroutines.
func TestParallelCancellation(t *testing.T) {
	p := smokeProblem(t, 600, 3, datagen.AntiCorrelated, 0.05, 77)
	serial, _ := recordRun(t, p, Options{})
	if len(serial) < 8 {
		t.Fatalf("fixture too small: %d results", len(serial))
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var got []smj.Result
	e := New(Options{Workers: 4})
	_, err := e.RunContext(ctx, p, smj.SinkFunc(func(r smj.Result) {
		got = append(got, smj.Result{LeftID: r.LeftID, RightID: r.RightID, Out: slices.Clone(r.Out)})
		if len(got) == 4 {
			cancel()
		}
	}))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(serial) {
		t.Fatalf("canceled run emitted the whole stream (%d results)", len(got))
	}
	if !sameRuns(got, serial[:len(got)]) {
		t.Fatal("canceled run is not a prefix of the serial stream")
	}
	// The deferred pool.stop ran before RunContext returned; give the
	// runtime a moment to retire worker stacks, then compare.
	waitGoroutines(t, before, before+1)
}

// TestPrefetchWorkerPanicIsContained injects a panic on a prefetch worker
// between the run's first and last result and requires the fault to stay
// inside its run: the panic surfaces on the caller's goroutine (where the
// serve layer recovers it) after a proper prefix of the stream, the pool's
// workers are gone when it does, a serial neighbour held in flight on the
// same Prepared plan throughout and a parallel run after it both reproduce
// the solo stream.
func TestPrefetchWorkerPanicIsContained(t *testing.T) {
	pl := preparePlan(t, smokeProblem(t, 600, 3, datagen.AntiCorrelated, 0.05, 77), Options{})
	runPlan := func(workers int, into *[]smj.Result, onResult func()) {
		_, err := New(Options{Workers: workers}).RunPlanContext(context.Background(), pl, smj.SinkFunc(func(r smj.Result) {
			*into = append(*into, smj.Result{LeftID: r.LeftID, RightID: r.RightID, Out: slices.Clone(r.Out)})
			onResult()
		}))
		if err != nil {
			t.Error(err)
		}
	}
	var solo []smj.Result
	runPlan(2, &solo, func() {})

	// The injection below relies on two properties of the plan: its first
	// result comes out of the first region's own determination, before any
	// discard, and results still follow the third region chosen.
	var chosen, discarded, firstChosen, firstDiscarded, lastChosen int
	trace := func(ev Event) {
		switch ev.Kind {
		case EventRegionChosen:
			chosen++
		case EventRegionDiscarded:
			discarded++
		}
	}
	results := 0
	if _, err := New(Options{Trace: trace}).RunPlanContext(context.Background(), pl, smj.SinkFunc(func(smj.Result) {
		if results++; results == 1 {
			firstChosen, firstDiscarded = chosen, discarded
		}
		lastChosen = chosen
	})); err != nil {
		t.Fatal(err)
	}
	if firstChosen != 1 || firstDiscarded != 0 || lastChosen < 3 {
		t.Fatalf("fixture: first result after %d regions chosen and %d discarded, last after %d chosen; want 1, 0 and ≥ 3", firstChosen, firstDiscarded, lastChosen)
	}
	before := runtime.NumGoroutine()

	// The neighbour is serial, so it never reads the hook installed below.
	var neighbour []smj.Result
	held, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		runPlan(0, &neighbour, func() {
			if len(neighbour) == 1 {
				close(held)
				<-release
			}
		})
	}()
	<-held

	// One worker calls the hook in the order it claims jobs, and it receives
	// them in the order the sequencer publishes them, so only its first call
	// can be building the first region: the one job the sequencer needs
	// before the first result. Every later call waits at the gate, which the
	// first result opens, and that result holds the sequencer until a call
	// has fired. A call always comes: the sequencer publishes a window of
	// three regions before its first take and claims only the first region
	// itself. The call that fires builds the region at prefetch position 1 or
	// 2, which the sequencer meets no later than its third region.
	var calls atomic.Int32
	var firing atomic.Bool
	gate, fired := make(chan struct{}), make(chan struct{})
	par.YieldHook = func() {
		if calls.Add(1) == 1 {
			return
		}
		<-gate
		if firing.CompareAndSwap(false, true) {
			close(fired)
			panic("injected worker fault")
		}
	}
	t.Cleanup(func() { par.YieldHook = nil })
	var partial []smj.Result
	fault := func() (v any) {
		defer func() { v = recover() }()
		runPlan(1, &partial, func() {
			if len(partial) == 1 {
				close(gate)
				<-fired
			}
		})
		return nil
	}()
	par.YieldHook = nil
	if fault != "injected worker fault" {
		t.Fatalf("the faulty run ended with %v after %d of %d results, want the worker's panic on this goroutine", fault, len(partial), len(solo))
	}
	if len(partial) == 0 || len(partial) >= len(solo) || !sameRuns(partial, solo[:len(partial)]) {
		t.Fatalf("the faulty run emitted %d results, want a proper prefix of the solo stream's %d", len(partial), len(solo))
	}

	close(release)
	<-finished
	if !sameRuns(neighbour, solo) {
		t.Fatal("the neighbour's stream diverges from the solo run")
	}
	var after []smj.Result
	if runPlan(2, &after, func() {}); !sameRuns(after, solo) {
		t.Fatal("a run of the plan after the fault diverges from the solo run")
	}
	waitGoroutines(t, before, before)
}

// TestParForPanicIsContained injects a panic into a par.For chunk — the
// first chunk to yield in buildSpace's coverage pass at Workers: 2 — and
// requires it to end only its run: the panic reaches the caller's goroutine
// (where the serve layer recovers it) before any result, no goroutine is
// left behind, and a serial neighbour held in flight on the same Prepared
// plan streams the solo run's results.
func TestParForPanicIsContained(t *testing.T) {
	pl := preparePlan(t, smokeProblem(t, 800, 3, datagen.Independent, 0.05, 77), Options{Partitioning: PartitionKD, InputCells: 4})
	if live, _ := pl.Regions(); live < par.Min {
		t.Fatalf("fixture has %d regions; par.For stays inline below %d", live, par.Min)
	}
	runPlan := func(workers int, into *[]smj.Result, onResult func()) {
		_, err := New(Options{Workers: workers, Partitioning: PartitionKD, InputCells: 4}).RunPlanContext(context.Background(), pl, smj.SinkFunc(func(r smj.Result) {
			*into = append(*into, smj.Result{LeftID: r.LeftID, RightID: r.RightID, Out: slices.Clone(r.Out)})
			onResult()
		}))
		if err != nil {
			t.Error(err)
		}
	}
	var solo []smj.Result
	runPlan(0, &solo, func() {})
	before := runtime.NumGoroutine()

	// The neighbour is serial: its par.For loops run inline and never yield.
	var neighbour []smj.Result
	held, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		runPlan(0, &neighbour, func() {
			if len(neighbour) == 1 {
				close(held)
				<-release
			}
		})
	}()
	<-held

	var fired atomic.Bool
	par.YieldHook = func() {
		if fired.CompareAndSwap(false, true) {
			panic("injected chunk fault")
		}
	}
	t.Cleanup(func() { par.YieldHook = nil })
	var partial []smj.Result
	fault := func() (v any) {
		defer func() { v = recover() }()
		runPlan(2, &partial, func() {})
		return nil
	}()
	par.YieldHook = nil
	if fault != "injected chunk fault" || len(partial) != 0 {
		t.Fatalf("the faulty run ended with %v after %d results, want the chunk's panic on this goroutine before any result", fault, len(partial))
	}

	close(release)
	<-finished
	if !sameRuns(neighbour, solo) {
		t.Fatal("the neighbour's stream diverges from the solo run")
	}
	waitGoroutines(t, before, before)
}

// waitGoroutines polls until at most max goroutines are alive and fails with
// every goroutine's stack once a deadline passes: a goroutine that has
// signalled it is done may still be exiting when the test looks.
func waitGoroutines(t *testing.T, before, max int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > max {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), stacks)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSerialRunIsThePoolWithoutWorkers pins what a Workers: 0 run adds to
// its tuple work: held inside its sink, the run has started no goroutine;
// its pool publishes nothing, so no job gets a channel, and it builds every
// stream into the sequencer's own buffer, never one off the free list.
func TestSerialRunIsThePoolWithoutWorkers(t *testing.T) {
	p := smokeProblem(t, 500, 3, datagen.AntiCorrelated, 0.05, 1234)
	before, during := runtime.NumGoroutine(), -1
	if _, err := New(Options{}).Run(p, smj.SinkFunc(func(smj.Result) {
		if during < 0 {
			during = runtime.NumGoroutine()
		}
	})); err != nil {
		t.Fatal(err)
	}
	if during != before {
		t.Fatalf("a serial run held in its sink has %d goroutines, %d before it started", during, before)
	}

	_, reg, s := parallelFixture(t)
	pl := newPool(context.Background(), 0, s, []*region{reg}, sumMaps2())
	defer pl.stop()
	pl.start([]int32{int32(reg.id)})
	buf, n := pl.take(reg, smj.NewCanceler(context.Background()))
	if buf != &pl.inline || n != reg.joinCard {
		t.Fatalf("take built %d candidates into %p, want %d into the sequencer's buffer %p", n, buf, reg.joinCard, &pl.inline)
	}
	pl.finish(reg)
	if j := &pl.jobs[reg.id]; j.done != nil || j.buf != nil || pl.feed != nil || pl.bufFree != nil || pl.inflight != 0 {
		t.Fatalf("a pool without workers published or pooled: done=%v buf=%v feed=%v bufFree=%v inflight=%d", j.done, j.buf, pl.feed, pl.bufFree, pl.inflight)
	}
}

// TestParallelNegativeWorkersUsesGOMAXPROCS smoke-checks the Workers < 0
// convention.
func TestParallelNegativeWorkersUsesGOMAXPROCS(t *testing.T) {
	p := smokeProblem(t, 300, 2, datagen.Independent, 0.05, 9)
	serial, _ := recordRun(t, p, Options{})
	got, _ := recordRun(t, p, Options{Workers: -1})
	if !sameRuns(got, serial) {
		t.Fatal("Workers=-1 diverges from serial")
	}
}

// TestPoolDropReleasesInflight exercises the discard path: a workload with
// region drops must still terminate with every published place in the
// window returned (the run would stop prefetching otherwise) and an
// identical stream. The fixture was picked for a non-zero RegionsDropped count.
func TestPoolDropReleasesInflight(t *testing.T) {
	p := smokeProblem(t, 350, 3, datagen.Correlated, 0.01, 301)
	serial, serialStats := recordRun(t, p, Options{})
	got, stats := recordRun(t, p, Options{Workers: 2})
	if !sameRuns(got, serial) {
		t.Fatal("parallel run diverges from serial")
	}
	if stats.RegionsDropped != serialStats.RegionsDropped {
		t.Fatalf("RegionsDropped: %d vs %d", stats.RegionsDropped, serialStats.RegionsDropped)
	}
	if serialStats.RegionsDropped == 0 {
		t.Log("fixture produced no region drops; discard path not exercised here (covered by the differential grid)")
	}
}

func TestWorkerSweepLabels(t *testing.T) {
	sweep := workerSweep()
	if len(sweep) < 3 || sweep[0] != 1 || sweep[1] != 2 || sweep[2] != 4 {
		t.Fatalf("workerSweep() = %v, want {1,2,4[,NumCPU]}", sweep)
	}
	_ = fmt.Sprintf("%v", sweep)
}

// sumOf returns the coordinate sum of v (test-side mirror of the stream
// construction's sum).
func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
