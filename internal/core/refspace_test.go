package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/grid"
	"progxe/internal/join"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// This file holds the differential oracle for the indexed output space: a
// deliberately naive reference implementation of the seed's tuple-level
// protocol and progressive determination (O(populated) scans per insert,
// O(cells) marking sweeps, O(active) blocker scans) under the same
// deterministic policies as the optimized space — SFS-sorted cell buffers
// (stable on equal sums) and smallest-flat-id blocker selection. The
// differential test replays the optimized engine's exact region schedule
// against the reference and demands bit-for-bit identical emissions, cell
// events, discards and counters.

type refTuple struct {
	leftID, rightID int64
	v               []float64
	sum             float64
}

type refCell struct {
	flat      int
	coords    []int
	lower     []float64
	regCount  int
	marked    bool
	populated bool
	finalized bool
	emitted   bool
	active    bool
	tuples    []refTuple
	watchers  []*refCell
}

type refSpace struct {
	d         int
	g         *grid.Grid
	cells     map[int]*refCell
	cellList  []*refCell
	populated []*refCell
	active    []*refCell

	emit func(c *refCell, t refTuple)

	resultCount     int
	cellsMarked     int
	mappedDiscarded int
}

// newRefSpace clones the statically built optimized space (coverage,
// RegCounts, static marking, active set) into the naive representation, so
// both start from the identical §III-A state.
func newRefSpace(s *space) *refSpace {
	r := &refSpace{d: s.d, g: s.g, cells: map[int]*refCell{}}
	for _, c := range s.cellList {
		rc := &refCell{
			flat:     c.flat,
			coords:   slices.Clone(c.coords),
			lower:    slices.Clone(c.lower),
			regCount: c.regCount,
			marked:   c.marked,
			active:   c.activeIdx >= 0,
		}
		if rc.marked {
			r.cellsMarked++
		}
		r.cells[rc.flat] = rc
		r.cellList = append(r.cellList, rc)
		if rc.active {
			r.active = append(r.active, rc)
		}
	}
	return r
}

func (r *refSpace) mark(c *refCell) {
	if c.marked {
		return
	}
	c.marked = true
	c.tuples = nil
	r.cellsMarked++
}

// insert is the seed's §III-B protocol: full scans over populated cells.
func (r *refSpace) insert(c *refCell, leftID, rightID int64, v []float64) bool {
	if c.marked {
		r.mappedDiscarded++
		return false
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	for _, p := range r.populated {
		if len(p.tuples) == 0 {
			continue
		}
		if p != c && !sliceBelowOrEqual(p.coords, c.coords) {
			continue
		}
		for _, u := range p.tuples {
			if preference.DominatesMin(u.v, v) {
				return false
			}
		}
	}
	for _, p := range r.populated {
		if len(p.tuples) == 0 {
			continue
		}
		if p != c && !sliceBelowOrEqual(c.coords, p.coords) {
			continue
		}
		keep := p.tuples[:0]
		for _, u := range p.tuples {
			if !preference.DominatesMin(v, u.v) {
				keep = append(keep, u)
			}
		}
		p.tuples = keep
	}
	// SFS order, stable on equal sums — the optimized space's buffer policy.
	t := refTuple{leftID: leftID, rightID: rightID, v: slices.Clone(v), sum: sum}
	pos := len(c.tuples)
	for pos > 0 && c.tuples[pos-1].sum > sum {
		pos--
	}
	c.tuples = slices.Insert(c.tuples, pos, t)
	if !c.populated {
		c.populated = true
		r.populated = append(r.populated, c)
		for _, q := range r.cellList {
			if !q.marked && q != c && grid.StrictlyBelow(c.coords, q.coords) {
				r.mark(q)
			}
		}
	}
	return true
}

func (r *refSpace) regionDone(cellIDs []int) {
	for _, flat := range cellIDs {
		c := r.cells[flat]
		c.regCount--
		if c.regCount == 0 && !c.finalized {
			c.finalized = true
			c.active = false
			for i, q := range r.active {
				if q == c {
					r.active = append(r.active[:i], r.active[i+1:]...)
					break
				}
			}
			r.consider(c)
			if len(c.watchers) > 0 {
				ws := c.watchers
				c.watchers = nil
				for _, w := range ws {
					r.consider(w)
				}
			}
		}
	}
}

func (r *refSpace) consider(c *refCell) {
	if c.emitted || c.marked || !c.finalized || len(c.tuples) == 0 {
		return
	}
	// Blocker: smallest-flat active cell in the closed lower orthant.
	var blocker *refCell
	for _, q := range r.active {
		if grid.LeqAll(q.coords, c.coords) && (blocker == nil || q.flat < blocker.flat) {
			blocker = q
		}
	}
	if blocker != nil {
		blocker.watchers = append(blocker.watchers, c)
		return
	}
	c.emitted = true
	for _, t := range c.tuples {
		r.emit(c, t)
	}
	r.resultCount += len(c.tuples)
}

// refEvent mirrors the engine trace kinds the replay can reproduce.
type refEvent struct {
	kind      EventKind
	region    int
	cell      int
	survivors int
}

func (e refEvent) String() string {
	return fmt.Sprintf("%s region=%d cell=%d survivors=%d", e.kind, e.region, e.cell, e.survivors)
}

// emission is one emitted result with its cell, for sequence comparison.
type emission struct {
	cell            int
	leftID, rightID int64
	out             []float64
}

// TestDifferentialIndexedSpace runs the optimized engine across dimensions
// 2..5, all three distributions and three selectivities, checks its result
// set against baseline.Oracle, then replays its exact region schedule
// through the naive reference space and demands identical emissions (order
// included), identical cell/discard event sequences and identical counters.
// Each cell of the grid additionally sweeps the parallel engine across
// worker counts, demanding bit-for-bit identity with the serial run (and
// therefore, transitively, with the naive reference). In -short mode the
// sweep keeps one σ per dimension — the subset the race-detector CI job
// runs on every PR.
func TestDifferentialIndexedSpace(t *testing.T) {
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	ns := map[int]int{2: 400, 3: 350, 4: 300, 5: 250}
	for d := 2; d <= 5; d++ {
		for _, dist := range dists {
			for _, sigma := range []float64{0.001, 0.01, 0.1} {
				if testing.Short() && sigma != 0.01 {
					continue
				}
				label := fmt.Sprintf("d=%d/%s/σ=%g", d, dist, sigma)
				t.Run(label, func(t *testing.T) {
					p := smokeProblem(t, ns[d], d, dist, sigma, uint64(100*d)+uint64(sigma*1000))
					differentialCheck(t, p, Options{})
				})
			}
		}
	}
}

// workerSweep lists the worker counts every differential cell verifies
// against the serial engine: the pipeline minimum, two, a typical core
// count, and whatever this machine has.
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// runRecorded executes the engine built from opts over p, recording the
// emission sequence, the full trace-event stream, and the run stats.
func runRecorded(t *testing.T, p *smj.Problem, opts Options) ([]emission, []Event, smj.Stats) {
	t.Helper()
	var events []Event
	var got []emission
	opts.Trace = func(ev Event) {
		events = append(events, ev)
		if ev.Kind == EventCellEmitted {
			// Back-fill the cell of the emissions this event covers.
			for i := len(got) - ev.Survivors; i < len(got); i++ {
				got[i].cell = ev.Cell
			}
		}
	}
	stats, err := New(opts).Run(p, smj.SinkFunc(func(res smj.Result) {
		got = append(got, emission{cell: -1, leftID: res.LeftID, rightID: res.RightID, out: slices.Clone(res.Out)})
	}))
	if err != nil {
		t.Fatalf("run (workers=%d): %v", opts.Workers, err)
	}
	return got, events, stats
}

// checkParallelMatchesSerial runs the worker sweep over p and demands that
// every parallel run reproduces the serial run bit for bit: the emission
// sequence (ids, cells and vectors), the complete trace-event stream
// (region choices with ranks, processing, discards, cell emissions), and
// every counter.
func checkParallelMatchesSerial(t *testing.T, p *smj.Problem, opts Options, serialEm []emission, serialEv []Event, serialStats smj.Stats) {
	t.Helper()
	for _, w := range workerSweep() {
		popts := opts
		popts.Workers = w
		em, ev, stats := runRecorded(t, p, popts)
		requireIdenticalRun(t, fmt.Sprintf("workers=%d", w), em, ev, stats, serialEm, serialEv, serialStats)
	}
}

// requireIdenticalRun demands one recorded run equals the serial reference
// byte for byte: emissions (cells, ids, vectors), the complete trace-event
// stream, and every counter.
func requireIdenticalRun(t *testing.T, label string, em []emission, ev []Event, stats smj.Stats, serialEm []emission, serialEv []Event, serialStats smj.Stats) {
	t.Helper()
	if len(em) != len(serialEm) {
		t.Fatalf("%s emitted %d results, serial %d", label, len(em), len(serialEm))
	}
	for i := range em {
		g, s := em[i], serialEm[i]
		if g.cell != s.cell || g.leftID != s.leftID || g.rightID != s.rightID || !slices.Equal(g.out, s.out) {
			t.Fatalf("%s emission %d diverges: parallel {cell %d (%d,%d) %v}, serial {cell %d (%d,%d) %v}",
				label, i, g.cell, g.leftID, g.rightID, g.out, s.cell, s.leftID, s.rightID, s.out)
		}
	}
	if len(ev) != len(serialEv) {
		t.Fatalf("%s produced %d trace events, serial %d", label, len(ev), len(serialEv))
	}
	for i := range ev {
		if ev[i] != serialEv[i] {
			t.Fatalf("%s event %d diverges: parallel %v, serial %v", label, i, ev[i], serialEv[i])
		}
	}
	if stats != serialStats {
		t.Fatalf("%s stats diverge: parallel %+v, serial %+v", label, stats, serialStats)
	}
}

func differentialCheck(t *testing.T, p *smj.Problem, opts Options) {
	t.Helper()

	// 1. Optimized run, recording emissions and trace events.
	var events []Event
	var got []emission
	var lastCell int
	opts.Trace = func(ev Event) {
		events = append(events, ev)
		if ev.Kind == EventCellEmitted {
			lastCell = ev.Cell
			// Back-fill the cell of the emissions this event covers.
			for i := len(got) - ev.Survivors; i < len(got); i++ {
				got[i].cell = lastCell
			}
		}
	}
	e := New(opts)
	stats, err := e.Run(p, smj.SinkFunc(func(res smj.Result) {
		got = append(got, emission{cell: -1, leftID: res.LeftID, rightID: res.RightID, out: slices.Clone(res.Out)})
	}))
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}

	// 2. Set equality against the blocking oracle (JF-SL).
	oracle, err := baseline.Oracle(p)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	inOracle := make(map[[2]int64]bool, len(oracle))
	for _, r := range oracle {
		inOracle[r.Key()] = true
	}
	if len(got) != len(oracle) {
		t.Fatalf("emitted %d results, oracle has %d", len(got), len(oracle))
	}
	for _, g := range got {
		if !inOracle[[2]int64{g.leftID, g.rightID}] {
			t.Fatalf("emitted (%d,%d) not in oracle", g.leftID, g.rightID)
		}
	}

	// 3. Replay the recorded region schedule through the naive reference.
	cp, d, err := checkProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	left, right := cp.Left, cp.Right
	if e.opts.PushThrough {
		left, _ = smj.PushThroughContext(left, cp.Maps, mapping.Left, nil)
		right, _ = smj.PushThroughContext(right, cp.Maps, mapping.Right, nil)
	}
	lparts, err := e.partition(left, cp.Maps, mapping.Left)
	if err != nil {
		t.Fatal(err)
	}
	rparts, err := e.partition(right, cp.Maps, mapping.Right)
	if err != nil {
		t.Fatal(err)
	}
	regions, _, front, err := buildRegions(lparts, rparts, cp.Maps, nil)
	if err != nil {
		t.Fatal(err)
	}
	outCells := e.opts.OutputCells
	if outCells == 0 {
		outCells = autoOutputCells(d)
	}
	var buildStats smj.Stats
	s, err := buildSpace(regions, front, d, outCells, &buildStats, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSpace(s)

	var want []emission
	var refEvents []refEvent
	ref.emit = func(c *refCell, tu refTuple) {
		want = append(want, emission{cell: c.flat, leftID: tu.leftID, rightID: tu.rightID, out: slices.Clone(tu.v)})
	}
	emittedBefore := 0
	noteCellEvents := func() {
		// One CellEmitted event per cell that emitted since the last call.
		for i := emittedBefore; i < len(want); {
			j := i
			for j < len(want) && want[j].cell == want[i].cell {
				j++
			}
			refEvents = append(refEvents, refEvent{kind: EventCellEmitted, cell: want[i].cell, survivors: j - i})
			i = j
		}
		emittedBefore = len(want)
	}

	live := make([]bool, len(regions))
	for i := range live {
		live[i] = true
	}
	mapBuf := make([]float64, d)
	var roundNew [][]float64
	for _, ev := range events {
		if ev.Kind != EventRegionChosen {
			continue
		}
		reg := regions[ev.Region]
		if !live[reg.id] {
			t.Fatalf("schedule chose dead region %d", reg.id)
		}
		live[reg.id] = false
		roundNew = roundNew[:0]
		lt, rt := tuplesOf(reg.a), tuplesOf(reg.b)
		join.Hash(lt, rt, func(li, ri int) bool {
			v := cp.Maps.Map(lt[li].Vals, rt[ri].Vals, mapBuf)
			c := ref.cells[ref.g.CellOf(v)]
			if c == nil {
				return true
			}
			if ref.insert(c, lt[li].ID, rt[ri].ID, v) {
				roundNew = append(roundNew, slices.Clone(v))
			}
			return true
		})
		refEvents = append(refEvents, refEvent{kind: EventRegionProcessed, region: reg.id})
		ref.regionDone(boxCells(ref.g, reg))
		noteCellEvents()
		if len(roundNew) > 0 {
			for _, other := range regions {
				if !live[other.id] {
					continue
				}
				for _, v := range roundNew {
					if preference.DominatesMin(v, other.rect.Lower) {
						live[other.id] = false
						refEvents = append(refEvents, refEvent{kind: EventRegionDiscarded, region: other.id})
						ref.regionDone(boxCells(ref.g, other))
						noteCellEvents()
						break
					}
				}
			}
		}
	}

	// 4. Bit-for-bit comparison: emissions, event sequence, counters.
	if len(got) != len(want) {
		t.Fatalf("optimized emitted %d results, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.cell != w.cell || g.leftID != w.leftID || g.rightID != w.rightID || !slices.Equal(g.out, w.out) {
			t.Fatalf("emission %d diverges: optimized {cell %d (%d,%d) %v}, reference {cell %d (%d,%d) %v}",
				i, g.cell, g.leftID, g.rightID, g.out, w.cell, w.leftID, w.rightID, w.out)
		}
	}
	var gotEvents []refEvent
	for _, ev := range events {
		switch ev.Kind {
		case EventRegionProcessed:
			gotEvents = append(gotEvents, refEvent{kind: ev.Kind, region: ev.Region})
		case EventRegionDiscarded:
			gotEvents = append(gotEvents, refEvent{kind: ev.Kind, region: ev.Region})
		case EventCellEmitted:
			gotEvents = append(gotEvents, refEvent{kind: ev.Kind, cell: ev.Cell, survivors: ev.Survivors})
		}
	}
	if len(gotEvents) != len(refEvents) {
		t.Fatalf("event streams diverge: optimized %d events, reference %d", len(gotEvents), len(refEvents))
	}
	for i := range gotEvents {
		if gotEvents[i] != refEvents[i] {
			t.Fatalf("event %d diverges: optimized %v, reference %v", i, gotEvents[i], refEvents[i])
		}
	}
	if stats.ResultCount != ref.resultCount {
		t.Fatalf("ResultCount: optimized %d, reference %d", stats.ResultCount, ref.resultCount)
	}
	if stats.CellsMarked != ref.cellsMarked {
		t.Fatalf("CellsMarked: optimized %d, reference %d", stats.CellsMarked, ref.cellsMarked)
	}
	if stats.MappedDiscarded != ref.mappedDiscarded {
		t.Fatalf("MappedDiscarded: optimized %d, reference %d", stats.MappedDiscarded, ref.mappedDiscarded)
	}
	for _, c := range ref.cellList {
		if !c.emitted && !c.marked && len(c.tuples) > 0 {
			t.Fatalf("reference retained unemitted survivors in cell %d", c.flat)
		}
	}

	// 5. Worker sweep: parallel runs must reproduce the (now reference-
	// validated) serial run bit for bit.
	checkParallelMatchesSerial(t, p, opts, got, events, stats)
}

// TestDifferentialEngineVariants replays the differential check under the
// non-default engine configurations whose schedules exercise different
// region orders (random, arrival, push-through, kd splits).
func TestDifferentialEngineVariants(t *testing.T) {
	p := smokeProblem(t, 300, 3, datagen.AntiCorrelated, 0.05, 99)
	for _, opts := range []Options{
		{Ordering: OrderRandom, Seed: 7},
		{Ordering: OrderArrival},
		{PushThrough: true},
		{Partitioning: PartitionKD},
		{InputCells: 2, OutputCells: 5},
	} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			differentialCheck(t, p, opts)
		})
	}
}

// TestDifferentialFallbackPaths re-runs the bit-for-bit differential check
// on the two grid shapes that once fell back to comparing coordinate slices
// (a dimension of more than 128 cells; more than 8 output dimensions). Both
// now run on the per-grid packed keys: 8 value bits per lane at k = 150,
// nine lanes of one value bit at d = 9.
func TestDifferentialFallbackPaths(t *testing.T) {
	t.Run("unpacked/k=150", func(t *testing.T) {
		p := smokeProblem(t, 200, 2, datagen.AntiCorrelated, 0.05, 41)
		differentialCheck(t, p, Options{OutputCells: 150})
	})
	t.Run("unpacked/d=9", func(t *testing.T) {
		p := smokeProblem(t, 120, 9, datagen.Independent, 0.1, 43)
		differentialCheck(t, p, Options{})
	})
}

// sliceBelowOrEqual reports a ≤ b componentwise with equality in ≥1
// dimension — the comparable-slice relation of §III-B including a == b.
func sliceBelowOrEqual(a, b []int) bool {
	anyEqual := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] == b[i]:
			anyEqual = true
		}
	}
	return anyEqual
}
