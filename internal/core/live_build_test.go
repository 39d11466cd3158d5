package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// replayLiveSpace is the construction oracle: the space StageLive would
// stage, but with every initial tuple routed through ApplyInsert — left side
// first, then the right side — the way LiveSpace was built before the bulk
// loader. It pays a mapping pass of its own for the grid bounds.
func replayLiveSpace(t testing.TB, p *smj.Problem) *LiveSpace {
	t.Helper()
	cp, err := p.Canonicalized()
	if err != nil {
		t.Fatal(err)
	}
	ls := newLiveSpace(p, cp)
	lo, hi := make([]float64, ls.d), make([]float64, ls.d)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	dst := make([]float64, ls.d)
	for _, lt := range cp.Left.Tuples {
		for _, rt := range cp.Right.Tuples {
			if lt.JoinKey != rt.JoinKey {
				continue
			}
			for i, v := range cp.Maps.Map(lt.Vals, rt.Vals, dst) {
				lo[i], hi[i] = min(lo[i], v), max(hi[i], v)
			}
		}
	}
	if err := ls.setGrid(lo, hi); err != nil {
		t.Fatal(err)
	}
	for _, lt := range cp.Left.Tuples {
		if err := ls.ApplyInsert(mapping.Left, lt, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range cp.Right.Tuples {
		if err := ls.ApplyInsert(mapping.Right, rt, nil); err != nil {
			t.Fatal(err)
		}
	}
	ls.stats = LiveStats{}
	return ls
}

// recSink records the emission stream verbatim, output bits included.
type recSink struct{ recs []string }

func (s *recSink) Result(r smj.Result) {
	line := fmt.Sprintf("result %d %d", r.LeftID, r.RightID)
	for _, v := range r.Out {
		line += fmt.Sprintf(" %016x", math.Float64bits(v))
	}
	s.recs = append(s.recs, line)
}

func (s *recSink) Retract(l, r int64) { s.recs = append(s.recs, fmt.Sprintf("retract %d %d", l, r)) }

// buildCase is one shape of initial problem the construction tests run on.
type buildCase struct {
	name    string
	n, d    int
	dist    datagen.Distribution
	sigma   float64
	highest []int // dimensions preferred HIGHEST
}

var buildCases = []buildCase{
	{name: "anti/d4", n: 60, d: 4, dist: datagen.AntiCorrelated, sigma: 0.05},
	{name: "anti/d2/mixed", n: 80, d: 2, dist: datagen.AntiCorrelated, sigma: 0.05, highest: []int{1}},
	{name: "indep/d3", n: 60, d: 3, dist: datagen.Independent, sigma: 0.05},
	{name: "indep/d3/mixed", n: 60, d: 3, dist: datagen.Independent, sigma: 0.05, highest: []int{0, 2}},
	{name: "corr/d3", n: 60, d: 3, dist: datagen.Correlated, sigma: 0.05},
	{name: "corr/d4/mixed", n: 60, d: 4, dist: datagen.Correlated, sigma: 0.05, highest: []int{3}},
	{name: "empty-join", n: 30, d: 3, dist: datagen.Independent, sigma: 0},
	{name: "hot-key", n: 25, d: 3, dist: datagen.AntiCorrelated, sigma: 1},
	{name: "hot-key/mixed", n: 25, d: 2, dist: datagen.Independent, sigma: 1, highest: []int{0}},
}

func (bc buildCase) problem(t testing.TB, seed uint64) *smj.Problem {
	p := liveProblem(t, bc.n, bc.d, bc.dist, max(bc.sigma, 0.01), seed)
	attrs := p.Pref.Attributes()
	for _, j := range bc.highest {
		attrs[j].Order = preference.Highest
	}
	p.Pref = preference.NewPareto(attrs...)
	switch bc.sigma {
	case 0: // no key on the left occurs on the right
		for i := range p.Right.Tuples {
			p.Right.Tuples[i].JoinKey += 1 << 40
		}
	case 1: // one key everywhere: the join is the cross product
		for _, r := range []*relation.Relation{p.Left, p.Right} {
			for i := range r.Tuples {
				r.Tuples[i].JoinKey = 7
			}
		}
	}
	return p
}

// TestLiveBuildMatchesReplay is the construction differential: the bulk-built
// space and the replay-built one hold the same result set, and fed the same
// random insert/delete stream on both sides they emit byte-identical record
// sequences. Only referee choice may differ between them, and that never
// reaches a sink.
func TestLiveBuildMatchesReplay(t *testing.T) {
	for ci, bc := range buildCases {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			p := bc.problem(t, uint64(1000+ci))
			bulk, err := NewLiveSpace(p)
			if err != nil {
				t.Fatal(err)
			}
			replay := replayLiveSpace(t, p)
			sameResults(t, "after build", bulk.Results(), replay.Results())
			if got, want := len(bulk.cellList), len(replay.cellList); got != want {
				t.Fatalf("bulk build made %d cells, replay %d", got, want)
			}
			for i, c := range bulk.cellList {
				if !slices.Equal(c.coords, replay.cellList[i].coords) {
					t.Fatalf("cell %d: bulk coords %v, replay coords %v", i, c.coords, replay.cellList[i].coords)
				}
			}

			ids := [2][]int64{}
			for s, r := range []*relation.Relation{p.Left, p.Right} {
				for _, tup := range r.Tuples {
					ids[s] = append(ids[s], tup.ID)
				}
			}
			keys := []int64{7, 1 << 41}
			for _, tup := range p.Left.Tuples {
				keys = append(keys, tup.JoinKey)
			}
			arity := [2]int{len(p.Left.Schema.Attrs), len(p.Right.Schema.Attrs)}
			rng := rand.New(rand.NewPCG(uint64(ci), 99))
			nextID := int64(1 << 30)
			var a, b recSink
			seen := 0 // records of earlier steps, already compared
			for step := 0; step < 400; step++ {
				side := mapping.Side(rng.IntN(2))
				if rng.Float64() < 0.45 && len(ids[side]) > 0 {
					i := rng.IntN(len(ids[side]))
					id := ids[side][i]
					ids[side] = slices.Delete(ids[side], i, i+1)
					if err := bulk.ApplyDelete(side, id, &a); err != nil {
						t.Fatal(err)
					}
					if err := replay.ApplyDelete(side, id, &b); err != nil {
						t.Fatal(err)
					}
				} else {
					vals := make([]float64, arity[side])
					for i := range vals {
						vals[i] = rng.Float64()*1.4 - 0.2 // strays outside the initial bounds
					}
					tup := relation.Tuple{ID: nextID, Vals: vals, JoinKey: keys[rng.IntN(len(keys))]}
					nextID++
					ids[side] = append(ids[side], tup.ID)
					if err := bulk.ApplyInsert(side, tup, &a); err != nil {
						t.Fatal(err)
					}
					if err := replay.ApplyInsert(side, tup, &b); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(a.recs[seen:], b.recs[seen:]) {
					t.Fatalf("step %d: streams diverge\nbulk:   %q\nreplay: %q", step, a.recs[seen:], b.recs[seen:])
				}
				seen = len(a.recs)
			}
			sameResults(t, "after stream", bulk.Results(), replay.Results())
			if len(a.recs) == 0 && bc.sigma != 0 {
				t.Fatal("stream emitted nothing")
			}
		})
	}
}

// TestLinkCellsMatchesLazyLists pins Build's bulk adjacency links against
// the lists domCells and vicCells build from empty: dom holds the same cells,
// and vic the same cells in the same order — the order eviction sweeps
// retract in.
func TestLinkCellsMatchesLazyLists(t *testing.T) {
	for ci, bc := range buildCases {
		t.Run(bc.name, func(t *testing.T) {
			ls, err := NewLiveSpace(bc.problem(t, uint64(1000+ci)))
			if err != nil {
				t.Fatal(err)
			}
			if n := ls.g.NumCells(); n > denseGridCells {
				t.Fatalf("a %d-cell grid is not linked in bulk", n)
			}
			byPos := func(a, b *liveCell) int { return a.pos - b.pos }
			for _, c := range ls.cellList {
				lazy := &liveCell{coords: c.coords}
				dom, vic := ls.domCells(lazy), ls.vicCells(lazy)
				if got := slices.SortedFunc(slices.Values(c.dom), byPos); !slices.Equal(got, dom) {
					t.Fatalf("cell %v: bulk dom %v, lazy dom %v", c.coords, cellPositions(got), cellPositions(dom))
				}
				if !slices.Equal(c.vic, vic) {
					t.Fatalf("cell %v: bulk vic %v, lazy vic %v", c.coords, cellPositions(c.vic), cellPositions(vic))
				}
			}
		})
	}
}

// cellPositions lists the cells' creation positions.
func cellPositions(cells []*liveCell) []int {
	pos := make([]int, len(cells))
	for i, c := range cells {
		pos[i] = c.pos
	}
	return pos
}

func sameResults(t *testing.T, label string, got, want []smj.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].LeftID != want[i].LeftID || got[i].RightID != want[i].RightID {
			t.Fatalf("%s: result %d is (%d,%d), want (%d,%d)", label, i,
				got[i].LeftID, got[i].RightID, want[i].LeftID, want[i].RightID)
		}
		for j := range got[i].Out {
			if math.Float64bits(got[i].Out[j]) != math.Float64bits(want[i].Out[j]) {
				t.Fatalf("%s: result %d dim %d: %v, want %v", label, i, j, got[i].Out[j], want[i].Out[j])
			}
		}
	}
}

// finalitySink checks a streamed build record by record: ascending sums, no
// retract, and membership in the oracle skyline.
type finalitySink struct {
	t         *testing.T
	pref      *preference.Pareto
	want      map[[2]int64]bool
	anyMember bool // skip the membership check (the caller compares the whole set)
	n         int
	lastSum   float64
}

func (s *finalitySink) Result(r smj.Result) {
	if !s.anyMember && !s.want[[2]int64{r.LeftID, r.RightID}] {
		s.t.Fatalf("record %d: (%d,%d) is not in the oracle skyline", s.n, r.LeftID, r.RightID)
	}
	sum := 0.0
	for j, a := range s.pref.Attributes() {
		if a.Order == preference.Highest {
			sum -= r.Out[j]
		} else {
			sum += r.Out[j]
		}
	}
	if s.n > 0 && sum < s.lastSum {
		s.t.Fatalf("record %d: coordinate sum fell from %v to %v", s.n, s.lastSum, sum)
	}
	s.n, s.lastSum = s.n+1, sum
}

func (s *finalitySink) Retract(l, r int64) {
	s.t.Fatalf("build retracted (%d,%d): a streamed survivor was not final", l, r)
}

// TestLiveBuildStreamsFinalResults pins the early-and-final contract of the
// streamed snapshot.
func TestLiveBuildStreamsFinalResults(t *testing.T) {
	for ci, bc := range buildCases {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			p := bc.problem(t, uint64(2000+ci))
			want := map[[2]int64]bool{}
			for _, r := range replayLiveSpace(t, p).Results() {
				want[[2]int64{r.LeftID, r.RightID}] = true
			}
			st, err := StageLive(p)
			if err != nil {
				t.Fatal(err)
			}
			fin := &finalitySink{t: t, pref: p.Pref, want: want}
			ls, err := st.BuildContext(context.Background(), fin)
			if err != nil {
				t.Fatal(err)
			}
			if fin.n != len(want) {
				t.Fatalf("build streamed %d records, oracle skyline has %d", fin.n, len(want))
			}
			if got := ls.Stats(); got != (LiveStats{Results: fin.n}) {
				t.Fatalf("stats after build = %+v, want only %d results", got, fin.n)
			}
		})
	}
}

type multiSink []LiveSink

func (m multiSink) Result(r smj.Result) {
	for _, s := range m {
		s.Result(r)
	}
}

func (m multiSink) Retract(l, r int64) {
	for _, s := range m {
		s.Retract(l, r)
	}
}

// TestLiveBuildRejectsBadRelations pins that staging keeps ApplyInsert's
// checks and fails before anything is placed, and that a pair mapping to a
// non-finite output fails the build.
func TestLiveBuildRejectsBadRelations(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(p *smj.Problem)
	}{
		{"duplicate left id", func(p *smj.Problem) { p.Left.Tuples[3].ID = p.Left.Tuples[0].ID }},
		{"duplicate right id", func(p *smj.Problem) { p.Right.Tuples[5].ID = p.Right.Tuples[1].ID }},
		{"NaN value", func(p *smj.Problem) { p.Right.Tuples[2].Vals[0] = math.NaN() }},
		{"infinite value", func(p *smj.Problem) { p.Left.Tuples[2].Vals[1] = math.Inf(1) }},
	} {
		p := liveProblem(t, 10, 2, datagen.Independent, 0.2, 5)
		c.mutate(p)
		if _, err := StageLive(p); err == nil {
			t.Fatalf("%s: staged", c.name)
		}
	}
	p := liveProblem(t, 10, 2, datagen.Independent, 0.2, 5)
	for _, r := range []*relation.Relation{p.Left, p.Right} {
		r.Tuples[0].Vals[0], r.Tuples[0].JoinKey = math.MaxFloat64, 99
	}
	if _, err := NewLiveSpace(p); !errors.Is(err, ErrNonFiniteOutput) {
		t.Fatalf("overflowing output: built, error %v", err)
	}
}

// TestLiveStageAcceptsFiniteJoinPastBounds pins that a join whose attribute
// bounds' corners overflow, though none of its pairs does, is staged and
// builds the result set a replay builds, and that once a pair overflows the
// build fails.
func TestLiveStageAcceptsFiniteJoinPastBounds(t *testing.T) {
	p := liveProblem(t, 40, 2, datagen.Independent, 0.2, 5)
	// Two huge tuples whose sum overflows, under join keys nothing else has:
	// they pair with nothing.
	p.Left.Tuples[0].Vals[0], p.Left.Tuples[0].JoinKey = math.MaxFloat64, 1<<40
	p.Right.Tuples[0].Vals[0], p.Right.Tuples[0].JoinKey = math.MaxFloat64, 1<<41
	st, err := StageLive(p)
	if err != nil {
		t.Fatalf("staging refused a join whose outputs are all finite: %v", err)
	}
	ls, err := st.BuildContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "build", ls.Results(), replayLiveSpace(t, p).Results())

	// Give the right one the left one's key: now a pair overflows.
	p.Right.Tuples[0].JoinKey = p.Left.Tuples[0].JoinKey
	if _, err := NewLiveSpace(p); !errors.Is(err, ErrNonFiniteOutput) {
		t.Fatalf("built a join with an overflowing pair, error %v", err)
	}
}

// pollCtx is a context whose Err counts its calls and reports Canceled from
// call cancelAt on (never when cancelAt is 0).
type pollCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestLiveBuildPollsContext pins that a build gives up once its context is
// done: it looks at the context at least once per buildPoll tuples over the
// mapping and the dominance pass together, and a cancellation seen at its
// first, a middle or its last look ends the build with the context's error.
func TestLiveBuildPollsContext(t *testing.T) {
	p := liveProblem(t, 1200, 3, datagen.Independent, 0.02, 9)
	st, err := StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	full := &pollCtx{Context: context.Background()}
	ls, err := st.BuildContext(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := int(ls.nextSeq)
	if rows < 4*buildPoll || full.calls < rows/buildPoll {
		t.Fatalf("%d looks at the context over %d join rows; want ≥ %d", full.calls, rows, rows/buildPoll)
	}
	for _, at := range []int{1, full.calls / 2, full.calls} {
		st, err := StageLive(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pollCtx{Context: context.Background(), cancelAt: at}
		if ls, err := st.BuildContext(ctx, nil); ls != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at look %d of %d: space %v, error %v", at, full.calls, ls != nil, err)
		}
		if ctx.calls != at {
			t.Fatalf("canceled at look %d, the build looked %d times", at, ctx.calls)
		}
	}
}

// TestLiveAcceptsNonFiniteUnreadValues pins the batch engine's input rule on
// the live path: a NaN or infinite value in an attribute no mapping function
// reads is accepted — by staging, with the batch run's result set, and by
// ApplyInsert — while one in a read attribute is still refused.
func TestLiveAcceptsNonFiniteUnreadValues(t *testing.T) {
	p := liveProblem(t, 40, 3, datagen.Independent, 0.2, 11)
	p.Maps = mapping.MustSet(
		mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
		mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
	)
	p.Pref = preference.AllLowest(2)
	p.Left.Tuples[0].Vals[2] = math.NaN()
	p.Right.Tuples[1].Vals[2] = math.Inf(-1)

	var batch smj.Collector
	if _, err := New(Options{}).Run(p, &batch); err != nil || len(batch.Results) == 0 {
		t.Fatalf("batch run: %d results, %v", len(batch.Results), err)
	}
	slices.SortFunc(batch.Results, func(a, b smj.Result) int {
		return cmp.Or(cmp.Compare(a.LeftID, b.LeftID), cmp.Compare(a.RightID, b.RightID))
	})
	st, err := StageLive(p)
	if err != nil {
		t.Fatalf("staging refused a non-finite value no mapping reads: %v", err)
	}
	ls, err := st.BuildContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "build", ls.Results(), batch.Results)

	key := p.Right.Tuples[0].JoinKey
	if err := ls.ApplyInsert(mapping.Left, relation.Tuple{ID: 1 << 20, Vals: []float64{0.5, 0.5, math.NaN()}, JoinKey: key}, nil); err != nil {
		t.Fatalf("insert with a NaN no mapping reads: %v", err)
	}
	if err := ls.ApplyInsert(mapping.Right, relation.Tuple{ID: 1 << 20, Vals: []float64{0.5, math.Inf(1), 0.5}, JoinKey: key}, nil); err == nil {
		t.Fatal("insert with an infinite value a mapping reads accepted")
	}
}

// edgeProblem is a 2-d sum query over hand-written tuples (all on one join
// key), for cases where the exact float values matter.
func edgeProblem(left, right [][]float64) *smj.Problem {
	rel := func(name string, rows [][]float64) *relation.Relation {
		r := &relation.Relation{Schema: &relation.Schema{Name: name, Attrs: []string{"a", "b"}}}
		for i, vals := range rows {
			r.Tuples = append(r.Tuples, relation.Tuple{ID: int64(i + 1), Vals: vals, JoinKey: 1})
		}
		return r
	}
	return &smj.Problem{
		Left: rel("L", left), Right: rel("R", right),
		Maps: mapping.MustSet(
			mapping.Func{Name: "x", Expr: mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))},
			mapping.Func{Name: "y", Expr: mapping.Sum(mapping.A(mapping.Left, 1, ""), mapping.A(mapping.Right, 1, ""))},
		),
		Pref: preference.AllLowest(2),
	}
}

// TestLiveSpaceRoundedSumTies drives the precision-loss pair through every
// scan that cuts off on the coordinate sum: (1e16, 0) dominates (1e16, 1),
// and both sums round to 1e16.
func TestLiveSpaceRoundedSumTies(t *testing.T) {
	big := []float64{1e16, 0}
	if big[0]+1 != big[0] {
		t.Fatal("1e16 + 1 is expected to round to 1e16")
	}
	victim, dominator := []float64{0, 1}, []float64{0, 0} // as right tuples under big
	pairs := func(rs []smj.Result) [][2]int64 {
		var out [][2]int64
		for _, r := range rs {
			out = append(out, [2]int64{r.LeftID, r.RightID})
		}
		return out
	}

	// Build: the victim comes first in (sum, seq) order and must still not
	// be streamed.
	p := edgeProblem([][]float64{big}, [][]float64{victim, dominator})
	st, err := StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	sink := newNetSink(t)
	ls, err := st.BuildContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	assertNetMatchesOracle(t, "build", sink, p)
	if got := pairs(ls.Results()); !slices.Equal(got, [][2]int64{{1, 2}}) {
		t.Fatalf("build kept %v, want only the dominator (1,2)", got)
	}

	// Insert of the dominator evicts an alive victim of equal sum; insert of
	// the victim dies to an alive dominator of equal sum.
	for _, order := range [][][]float64{{victim, dominator}, {dominator, victim}} {
		p := edgeProblem([][]float64{big}, nil)
		ls, err := NewLiveSpace(p)
		if err != nil {
			t.Fatal(err)
		}
		sink := newNetSink(t)
		for i, vals := range order {
			tup := relation.Tuple{ID: int64(i + 1), Vals: vals, JoinKey: 1}
			if err := ls.ApplyInsert(mapping.Right, tup, sink); err != nil {
				t.Fatal(err)
			}
			p.Right.Tuples = append(p.Right.Tuples, tup)
			assertNetMatchesOracle(t, fmt.Sprintf("insert %v", vals), sink, p)
		}
	}

	// Delete promotion: one survivor referees both; deleting it must promote
	// the dominator only, although the victim ranks first among the
	// candidates.
	p = edgeProblem([][]float64{big, {0, 0}}, [][]float64{victim, dominator})
	st, err = StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	sink = newNetSink(t)
	ls, err = st.BuildContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.ApplyDelete(mapping.Left, 2, sink); err != nil {
		t.Fatal(err)
	}
	p.Left.Tuples = p.Left.Tuples[:1]
	assertNetMatchesOracle(t, "delete", sink, p)
}

// TestLiveSpaceInfiniteWidthGrid builds and updates a space whose outputs
// span ±1e308: finite, but the grid's cell width along y is +Inf, and an
// output at 1e308 (where v−lo overflows) has a NaN cell quotient. y is the
// last dimension, so its coordinate enters the flat cell index with stride 1.
func TestLiveSpaceInfiniteWidthGrid(t *testing.T) {
	p := edgeProblem(
		[][]float64{{0, 5e307}, {3, -5e307}},
		[][]float64{{1, 5e307}, {2, -5e307}, {0, 0}},
	)
	st, err := StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	sink := newNetSink(t)
	ls, err := st.BuildContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	assertNetMatchesOracle(t, "build", sink, p)
	for i, vals := range [][]float64{{-1, 5e307}, {-2, -5e307}, {-3, 5e307}} {
		tup := relation.Tuple{ID: int64(10 + i), Vals: vals, JoinKey: 1}
		if err := ls.ApplyInsert(mapping.Right, tup, sink); err != nil {
			t.Fatal(err)
		}
		p.Right.Tuples = append(p.Right.Tuples, tup)
		assertNetMatchesOracle(t, fmt.Sprintf("insert %v", vals), sink, p)
	}
	for _, id := range []int64{10, 2} {
		if err := ls.ApplyDelete(mapping.Right, id, sink); err != nil {
			t.Fatal(err)
		}
		p.Right.Tuples = slices.DeleteFunc(p.Right.Tuples, func(tp relation.Tuple) bool { return tp.ID == id })
		assertNetMatchesOracle(t, fmt.Sprintf("delete %d", id), sink, p)
	}
}

// FuzzLiveFloatEdges is the float-edge property test: relations drawn from
// a small pool of awkward values — signed zeros, duplicates, exact ties,
// magnitudes at which coordinate sums lose precision — must give the naive
// skyline after the build and after every apply. The seed picks the draws;
// seeds 0–23 and testdata's cases are the corpus plain `go test` runs, and
// the fuzzer searches further for the equal-sum runs and orphans settle
// handles, and for inserts far outside the initial grid.
func FuzzLiveFloatEdges(f *testing.F) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, 1, 2, 3, 0.1, 0.2, 0.30000000000000004,
		1e16, 1e16, 1e16 + 2, -1e16, 1e-300, 5e15, 5e15 + 1,
		4e307, -4e307, // finite outputs whose coordinate sum can still overflow to ±Inf
	}
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0xed9e))
		d := 2 + int(seed%2)
		draw := func(id int64) relation.Tuple {
			vals := make([]float64, d)
			for i := range vals {
				vals[i] = pool[rng.IntN(len(pool))]
			}
			return relation.Tuple{ID: id, Vals: vals, JoinKey: int64(rng.IntN(2))}
		}
		p := liveProblem(t, 1, d, datagen.Independent, 1, 1) // for its schemas and sum mapping
		if seed%3 == 2 {
			attrs := p.Pref.Attributes()
			attrs[0].Order = preference.Highest
			p.Pref = preference.NewPareto(attrs...)
		}
		p.Left.Tuples, p.Right.Tuples = nil, nil
		for id := int64(1); id <= 14; id++ {
			p.Left.Tuples = append(p.Left.Tuples, draw(id))
			p.Right.Tuples = append(p.Right.Tuples, draw(id))
		}
		st, err := StageLive(p)
		if err != nil {
			t.Fatal(err)
		}
		sink := newNetSink(t)
		ls, err := st.BuildContext(context.Background(), multiSink{sink, &finalitySink{t: t, pref: p.Pref, anyMember: true}})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		assertNetMatchesOracle(t, label+" build", sink, p)

		cur := [2]*relation.Relation{p.Left, p.Right}
		for step := 0; step < 60; step++ {
			side := mapping.Side(rng.IntN(2))
			rel := cur[side]
			if rng.Float64() < 0.45 && len(rel.Tuples) > 0 {
				i := rng.IntN(len(rel.Tuples))
				if err := ls.ApplyDelete(side, rel.Tuples[i].ID, sink); err != nil {
					t.Fatal(err)
				}
				rel.Tuples = slices.Delete(rel.Tuples, i, i+1)
			} else {
				tup := draw(int64(100 + step))
				if err := ls.ApplyInsert(side, tup, sink); err != nil {
					t.Fatal(err)
				}
				rel.Tuples = append(rel.Tuples, tup)
			}
			assertNetMatchesOracle(t, fmt.Sprintf("%s step %d", label, step), sink, p)
		}
	})
}

// BenchmarkLiveBuild builds the space of the benchmark's live_churn workload:
// anti-correlated, d=4, N=8000 a side, σ=0.001 — about 64K join rows.
func BenchmarkLiveBuild(b *testing.B) {
	p := liveProblem(b, 8000, 4, datagen.AntiCorrelated, 0.001, 21)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewLiveSpace(p); err != nil {
			b.Fatal(err)
		}
	}
}
