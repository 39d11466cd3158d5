package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/smj"
)

// brutePick is the closure pick by its definition, sharing no structure with
// closurePick: every cell of the space that is populated, neither emitted
// nor marked and holds survivors is costed by a direct comparison of its
// coordinates with the minC of every live region in order[forced:]; the
// best survivors-to-cost ratio wins, the smallest flat id on ties (cellList
// ascends by flat id), and a cell of cost 0 is skipped. It returns the
// positions of those regions in order.
func brutePick(r *runState) (*cell, []int) {
	forced := r.closure.forced
	tail := r.order[forced:]
	blocks := func(id int32, c *cell) bool {
		return r.state[id] == regionLive && grid.LeqAll(r.regions[id].minC, c.coords)
	}
	var best *cell
	bestN, bestCost := 0, 0
	for _, c := range r.space.cellList {
		if !c.populated || c.emitted || c.marked || len(c.buf.ts) == 0 {
			continue
		}
		cost := 0
		for _, id := range tail {
			if blocks(id, c) {
				cost += r.regions[id].joinCard
			}
		}
		if n := len(c.buf.ts); cost > 0 && (best == nil || n*bestCost > bestN*cost) {
			best, bestN, bestCost = c, n, cost
		}
	}
	if best == nil {
		return nil, nil
	}
	var at []int
	for i, id := range tail {
		if blocks(id, best) {
			at = append(at, forced+i)
		}
	}
	return best, at
}

// newTestRun sets a run of the plan up as runPlan does and lays out its
// schedule; the caller may replace choose before it drains the run.
func newTestRun(t *testing.T, pl *Prepared, opts Options, sink smj.Sink) *runState {
	t.Helper()
	var stats smj.Stats
	r, err := New(opts).newRun(context.Background(), smj.NewCanceler(context.Background()), pl, sink, opts.Workers, &stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.pool.stop)
	r.begin()
	return r
}

// samePick fails the test unless the fast pick equals the brute-force one.
func samePick(t testing.TB, label string, got *cell, gotB []int, want *cell, wantB []int) {
	t.Helper()
	flat := func(c *cell) int {
		if c == nil {
			return -1
		}
		return c.flat
	}
	if got != want || !slices.Equal(gotB, wantB) {
		t.Fatalf("%s: closurePick chose cell %d with blockers at %v, the brute force cell %d with %v", label, flat(got), gotB, flat(want), wantB)
	}
}

// TestClosurePickMatchesBruteForce drains a fine_lookahead-shaped plan and
// checks every pick of the run — the cell and the ordered blocker list —
// against brutePick, so the orthant sums, their corrections and the blocker
// pass's early stop are pinned at every state the run passes through.
func TestClosurePickMatchesBruteForce(t *testing.T) {
	pl := preparePlan(t, fineProblem(t, 4000), fineOpts)
	r := newTestRun(t, pl, fineOpts, smj.SinkFunc(func(smj.Result) {}))
	picks, corrected, moved := 0, 0, 0
	r.choose = func() (*cell, []int) {
		got, gotB := r.closurePick()
		if len(r.closure.gone) > r.closure.scanned {
			corrected++
		}
		want, wantB := brutePick(r)
		samePick(t, fmt.Sprintf("pick %d", picks), got, gotB, want, wantB)
		if got != nil {
			picks++
			moved += len(gotB)
		}
		return got, gotB
	}
	if err := r.drain(); err != nil {
		t.Fatal(err)
	}
	if picks < 20 || corrected == 0 {
		t.Fatalf("%d picks, %d of them on corrected sums: the drain does not exercise the pick", picks, corrected)
	}
	t.Logf("%d regions, %d picks (%d on corrected sums), %d regions moved", len(r.regions), picks, corrected, moved)
}

// FuzzClosurePick runs the same comparison on random grids, region boxes,
// orders and pending sets, through a sequence of picks between which regions
// are processed and discarded and cells gain, lose and emit survivors — the
// states in which the costs are brought up to date or rescanned.
func FuzzClosurePick(f *testing.F) {
	for seed := range uint64(8) {
		f.Add(seed, uint8(seed), uint8(3+seed), uint8(20+4*seed), uint8(10+seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, dims, cells, nRegions, steps uint8) {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		d, k := 1+int(dims%4), 2+int(cells%6)
		bounds, err := grid.NewBounds(make([]float64, d), slices.Repeat([]float64{1}, d))
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.Uniform(bounds, k)
		if err != nil {
			t.Fatal(err)
		}
		var stats smj.Stats
		s := newSpace(g, &stats)
		s.addCells(slices.Repeat([]cover{{n: 1}}, g.NumCells()))

		regions := make([]*region, 1+int(nRegions%48))
		for i := range regions {
			reg := &region{id: i, minC: make([]int, d), maxC: make([]int, d), joinCard: 1 + rng.IntN(40)}
			for j := range d {
				a, b := rng.IntN(k), rng.IntN(k)
				reg.minC[j], reg.maxC[j] = min(a, b), max(a, b)
			}
			regions[i] = reg
		}
		r := &runState{
			space:   s,
			regions: regions,
			d:       d,
			state:   make([]regionState, len(regions)),
			order:   make([]int32, len(regions)),
			pool:    newPool(context.Background(), 0, s, regions, nil),
		}
		for i, j := range rng.Perm(len(regions)) {
			r.order[i] = int32(j)
		}
		r.pool.start(r.order)
		r.startClosure()

		// A cell is pending exactly while it holds survivors, unless it
		// emitted.
		setSurvivors := func(c *cell, n int) {
			c.populated = true
			c.buf.ts = make([]outTuple, n)
			switch {
			case n == 0:
				s.dropPending(c)
			case c.pendIdx < 0:
				s.addPending(c)
			}
		}
		for range 1 + rng.IntN(2*g.NumCells()) {
			if c := s.cellList[rng.IntN(len(s.cellList))]; !c.populated {
				setSurvivors(c, 1+rng.IntN(3))
			}
		}
		for step := range 1 + int(steps%24) {
			// Process or discard a few regions, as the loop does.
			for range rng.IntN(4) {
				for r.pos < len(r.order) && r.state[r.order[r.pos]] != regionLive {
					r.pos++
				}
				if r.pos == len(r.order) {
					break
				}
				id := r.order[r.pos]
				r.pos++
				r.state[id] = regionProcessed
				r.leaveMass(int(id))
			}
			if id := rng.IntN(len(regions)); r.state[id] == regionLive && rng.IntN(3) == 0 {
				r.state[id] = regionDiscarded
				r.leaveMass(id)
			}
			// Pending cells come, go and change their survivor counts.
			for range rng.IntN(4) {
				c := s.cellList[rng.IntN(len(s.cellList))]
				switch {
				case c.emitted:
				case c.pendIdx >= 0 && rng.IntN(2) == 0:
					c.emitted = true
					s.dropPending(c)
				default:
					setSurvivors(c, rng.IntN(4))
				}
			}
			r.closure.forced = max(r.closure.forced, r.pos)
			got, gotB := r.closurePick()
			want, wantB := brutePick(r)
			samePick(t, fmt.Sprintf("step %d", step), got, gotB, want, wantB)
			if got == nil {
				continue
			}
			from, wantIDs := r.closure.forced, []int32{}
			for _, i := range wantB {
				wantIDs = append(wantIDs, r.order[i])
			}
			r.commitPick(gotB)
			if !slices.Equal(r.order[from:r.closure.forced], wantIDs) {
				t.Fatalf("step %d: committed prefix %v, want the blockers %v", step, r.order[from:r.closure.forced], wantIDs)
			}
			for i, id := range r.order {
				if r.closure.orderKeys[i] != r.closure.keys[id] {
					t.Fatalf("step %d: position %d holds region %d but the key of another", step, i, id)
				}
			}
		}
		seen := make([]bool, len(regions))
		for _, id := range r.order {
			if seen[id] {
				t.Fatalf("region %d twice in the order %v", id, r.order)
			}
			seen[id] = true
		}
	})
}

// releasePositions returns the p10, p50 and p90 release positions of a
// traced run: for each result, the run's join rows processed by the time it
// was emitted, as a fraction of all its join rows.
func releasePositions(events []Event) [3]float64 {
	var at []int // cumulative join rows at each emitted result
	rows := 0
	for _, ev := range events {
		switch ev.Kind {
		case EventRegionProcessed:
			rows += ev.JoinResults
		case EventCellEmitted:
			for range ev.Survivors {
				at = append(at, rows)
			}
		}
	}
	var q [3]float64
	for i, p := range []float64{0.1, 0.5, 0.9} {
		rank := int(float64(len(at))*p+0.999999) - 1 // ⌈p·R⌉-th result
		q[i] = float64(at[max(rank, 0)]) / float64(rows)
	}
	return q
}

// TestReleasePositions pins when results reach the consumer without a
// clock: emit p10/p50/p90 as fractions of the run's join rows, on fixtures
// shaped like the anti_tuple, indep_probe and fine_lookahead benchmark
// workloads. Every worker count gives the same positions, and each stays
// under a ceiling set a little above what closure picks give (0.191/0.591/
// 0.980, 0.028/0.170/0.518 and 0.071/0.482/0.892; the static rank order
// alone read 0.462/0.938/1.000, 0.098/0.473/0.862 and 0.514/0.936/0.997).
func TestReleasePositions(t *testing.T) {
	for _, fx := range []struct {
		name    string
		p       *smj.Problem
		opts    Options
		ceiling [3]float64
	}{
		{"anti d=4", smokeProblem(t, 5000, 4, datagen.AntiCorrelated, 0.001, 17), Options{}, [3]float64{0.22, 0.62, 0.985}},
		{"indep d=4", smokeProblem(t, 10000, 4, datagen.Independent, 0.001, 18), Options{}, [3]float64{0.05, 0.20, 0.55}},
		{"fine kd d=3", fineProblem(t, 10000), fineOpts, [3]float64{0.10, 0.52, 0.92}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			var serial [3]float64
			for _, workers := range []int{0, 1, 2, 4} {
				opts := fx.opts
				opts.Workers = workers
				_, events, _ := runRecorded(t, fx.p, opts)
				q := releasePositions(events)
				if workers == 0 {
					serial = q
					t.Logf("emit p10/p50/p90 = %.3f/%.3f/%.3f", q[0], q[1], q[2])
				} else if q != serial {
					t.Fatalf("workers=%d: release positions %v, serial %v", workers, q, serial)
				}
			}
			for i, c := range fx.ceiling {
				if serial[i] > c {
					t.Fatalf("emit p10/p50/p90 = %.3f/%.3f/%.3f, ceilings %v", serial[0], serial[1], serial[2], fx.ceiling)
				}
			}
		})
	}
}
