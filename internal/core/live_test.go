package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// The LiveSpace differential oracle: after every batch of a randomized
// insert/delete stream, the net result set (emissions minus retractions)
// must equal a fresh oracle run over the current snapshot — byte-compared
// on the canonical (LeftID, RightID) ordering, output vectors included.

func liveProblem(t testing.TB, n, d int, dist datagen.Distribution, sigma float64, seed uint64) *smj.Problem {
	t.Helper()
	r, s, err := datagen.GeneratePair(datagen.Spec{N: n, Dims: d, Distribution: dist, Selectivity: sigma, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	funcs := make([]mapping.Func, d)
	for j := 0; j < d; j++ {
		funcs[j] = mapping.Func{
			Name: fmt.Sprintf("x%d", j),
			Expr: mapping.Sum(mapping.A(mapping.Left, j, ""), mapping.A(mapping.Right, j, "")),
		}
	}
	return &smj.Problem{Left: r, Right: s, Maps: mapping.MustSet(funcs...), Pref: preference.AllLowest(d)}
}

// netSink folds the emission stream into the net result set, failing on a
// retract of a pair that was never delivered or a duplicate delivery.
type netSink struct {
	t   *testing.T
	net map[[2]int64][]float64
}

func newNetSink(t *testing.T) *netSink {
	return &netSink{t: t, net: make(map[[2]int64][]float64)}
}

func (s *netSink) Result(r smj.Result) {
	k := [2]int64{r.LeftID, r.RightID}
	if _, dup := s.net[k]; dup {
		s.t.Fatalf("duplicate emission for pair %v", k)
	}
	out := make([]float64, len(r.Out))
	copy(out, r.Out)
	s.net[k] = out
}

func (s *netSink) Retract(leftID, rightID int64) {
	k := [2]int64{leftID, rightID}
	if _, ok := s.net[k]; !ok {
		s.t.Fatalf("retract of undelivered pair %v", k)
	}
	delete(s.net, k)
}

// assertNetMatchesOracle compares the sink's net set against a fresh oracle
// run over the current relations, exact on IDs and output bytes.
func assertNetMatchesOracle(t *testing.T, label string, sink *netSink, p *smj.Problem) {
	t.Helper()
	want, err := baseline.Oracle(p)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if len(want) != len(sink.net) {
		t.Fatalf("%s: net set has %d pairs, oracle has %d", label, len(sink.net), len(want))
	}
	for _, w := range want {
		got, ok := sink.net[[2]int64{w.LeftID, w.RightID}]
		if !ok {
			t.Fatalf("%s: oracle pair (%d,%d) missing from net set", label, w.LeftID, w.RightID)
		}
		for i := range w.Out {
			if math.Float64bits(got[i]) != math.Float64bits(w.Out[i]) {
				t.Fatalf("%s: pair (%d,%d) dim %d: got %v want %v",
					label, w.LeftID, w.RightID, i, got[i], w.Out[i])
			}
		}
	}
}

// cloneRelation deep-copies a relation so the mutable snapshot the oracle
// sees is independent of the tuples handed to the LiveSpace.
func cloneRelation(r *relation.Relation) *relation.Relation {
	out := &relation.Relation{Schema: r.Schema}
	out.Tuples = make([]relation.Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		vals := make([]float64, len(t.Vals))
		copy(vals, t.Vals)
		out.Tuples[i] = relation.Tuple{ID: t.ID, Vals: vals, JoinKey: t.JoinKey}
	}
	return out
}

func TestLiveSpaceDifferential(t *testing.T) {
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	for _, dist := range dists {
		for _, d := range []int{2, 3, 4} {
			dist, d := dist, d
			t.Run(fmt.Sprintf("%v/d%d", dist, d), func(t *testing.T) {
				t.Parallel()
				testLiveDifferential(t, dist, d)
			})
		}
	}
}

func testLiveDifferential(t *testing.T, dist datagen.Distribution, d int) {
	p := liveProblem(t, 40, d, dist, 0.05, uint64(100*d)+uint64(dist))
	stage, err := StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	sink := newNetSink(t)
	ls, err := stage.BuildContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}

	// cur mirrors the base relations the LiveSpace holds; the oracle runs
	// on it after every batch.
	cur := [2]*relation.Relation{cloneRelation(p.Left), cloneRelation(p.Right)}
	rng := rand.New(rand.NewPCG(uint64(d)*7919, uint64(dist)+13))
	nextID := int64(1_000_000)

	randomJoinKey := func() int64 {
		// Mostly reuse a key that exists somewhere so inserts actually
		// join; sometimes a fresh key to exercise no-partner inserts.
		if rng.Float64() < 0.75 {
			side := cur[rng.IntN(2)]
			if len(side.Tuples) > 0 {
				return side.Tuples[rng.IntN(len(side.Tuples))].JoinKey
			}
		}
		return int64(rng.IntN(64))
	}
	arity := [2]int{len(p.Left.Schema.Attrs), len(p.Right.Schema.Attrs)}

	for batch := 0; batch < 25; batch++ {
		n := 1 + rng.IntN(4)
		for c := 0; c < n; c++ {
			side := mapping.Side(rng.IntN(2))
			del := rng.Float64() < 0.4 && len(cur[side].Tuples) > 1
			if del {
				i := rng.IntN(len(cur[side].Tuples))
				id := cur[side].Tuples[i].ID
				if err := ls.ApplyDelete(side, id, sink); err != nil {
					t.Fatalf("delete %d side %v: %v", id, side, err)
				}
				cur[side].Tuples = append(cur[side].Tuples[:i], cur[side].Tuples[i+1:]...)
				continue
			}
			vals := make([]float64, arity[side])
			for i := range vals {
				vals[i] = rng.Float64()
				if rng.Float64() < 0.15 {
					// Stray outside the initial grid bounds: the
					// clamped coordinates must stay sound.
					vals[i] = vals[i]*3 - 1
				}
			}
			tup := relation.Tuple{ID: nextID, Vals: vals, JoinKey: randomJoinKey()}
			nextID++
			if err := ls.ApplyInsert(side, tup, sink); err != nil {
				t.Fatalf("insert %d side %v: %v", tup.ID, side, err)
			}
			cur[side].Tuples = append(cur[side].Tuples, tup)
		}
		snap := &smj.Problem{Left: cur[0], Right: cur[1], Maps: p.Maps, Pref: p.Pref}
		assertNetMatchesOracle(t, fmt.Sprintf("batch %d", batch), sink, snap)
	}

	st := ls.Stats()
	if st.Inserts == 0 || st.Deletes == 0 {
		t.Fatalf("stream exercised nothing: %+v", st)
	}
}

// TestLiveSpaceHighestOrientation pins decanonicalization: a preference with
// a HIGHEST dimension must stream results in the original orientation,
// byte-equal to the oracle.
func TestLiveSpaceHighestOrientation(t *testing.T) {
	p := liveProblem(t, 30, 3, datagen.Independent, 0.05, 42)
	attrs := p.Pref.Attributes()
	attrs[1].Order = preference.Highest
	p.Pref = preference.NewPareto(attrs...)

	st, err := StageLive(p)
	if err != nil {
		t.Fatal(err)
	}
	sink := newNetSink(t)
	ls, err := st.BuildContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	cur := [2]*relation.Relation{cloneRelation(p.Left), cloneRelation(p.Right)}
	rng := rand.New(rand.NewPCG(7, 11))
	for i := int64(0); i < 20; i++ {
		side := mapping.Side(rng.IntN(2))
		if rng.Float64() < 0.4 && len(cur[side].Tuples) > 1 {
			j := rng.IntN(len(cur[side].Tuples))
			id := cur[side].Tuples[j].ID
			if err := ls.ApplyDelete(side, id, sink); err != nil {
				t.Fatal(err)
			}
			cur[side].Tuples = append(cur[side].Tuples[:j], cur[side].Tuples[j+1:]...)
		} else {
			vals := make([]float64, len(cur[side].Schema.Attrs))
			for k := range vals {
				vals[k] = rng.Float64()
			}
			tup := relation.Tuple{ID: 5000 + i, Vals: vals, JoinKey: int64(rng.IntN(8))}
			if err := ls.ApplyInsert(side, tup, sink); err != nil {
				t.Fatal(err)
			}
			cur[side].Tuples = append(cur[side].Tuples, tup)
		}
		snap := &smj.Problem{Left: cur[0], Right: cur[1], Maps: p.Maps, Pref: p.Pref}
		assertNetMatchesOracle(t, fmt.Sprintf("step %d", i), sink, snap)
	}
}

// TestLiveSpaceChangeValidation pins the error surface feed changes rely on.
func TestLiveSpaceChangeValidation(t *testing.T) {
	p := liveProblem(t, 10, 2, datagen.Independent, 0.1, 3)
	ls, err := NewLiveSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	existing := p.Left.Tuples[0]
	if err := ls.ApplyInsert(mapping.Left, existing, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := ls.ApplyDelete(mapping.Left, 999_999, nil); err == nil {
		t.Fatal("delete of missing id accepted")
	}
	bad := relation.Tuple{ID: 777, Vals: []float64{math.NaN(), 0}, JoinKey: 1}
	if err := ls.ApplyInsert(mapping.Left, bad, nil); err == nil {
		t.Fatal("NaN insert accepted")
	}
	// Off-arity tuples are refused before they become resident: on a side
	// with join partners, a short one would otherwise index past its values
	// in the mapping, and a long one would be kept silently.
	for _, vals := range [][]float64{{0.5}, {0.5, 0.5, 0.5}} {
		off := relation.Tuple{ID: 778, Vals: vals, JoinKey: existing.JoinKey}
		if err := ls.ApplyInsert(mapping.Left, off, nil); err == nil {
			t.Fatalf("%d-value insert on a 2-attribute side accepted", len(vals))
		}
		if ls.Has(mapping.Left, off.ID) {
			t.Fatalf("refused %d-value insert became resident", len(vals))
		}
	}
	if !ls.Has(mapping.Left, existing.ID) {
		t.Fatal("Has lost an existing tuple")
	}
	if ls.Has(mapping.Right, 999_999) {
		t.Fatal("Has invented a tuple")
	}
}

// TestLiveSpaceForgetsEmptiedKeys pins that the join-key index holds only
// keys some resident tuple carries: a feed that keeps bringing new keys and
// deleting them again must not grow it.
func TestLiveSpaceForgetsEmptiedKeys(t *testing.T) {
	p := liveProblem(t, 10, 2, datagen.Independent, 0.1, 3)
	ls, err := NewLiveSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	before := [2]int{len(ls.byKey[mapping.Left]), len(ls.byKey[mapping.Right])}
	for i := int64(0); i < 200; i++ {
		side := mapping.Side(i % 2)
		tup := relation.Tuple{ID: 1_000_000 + i, Vals: []float64{0.5, 0.5}, JoinKey: 1<<40 + i}
		if err := ls.ApplyInsert(side, tup, nil); err != nil {
			t.Fatal(err)
		}
		if err := ls.ApplyDelete(side, tup.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := [2]int{len(ls.byKey[mapping.Left]), len(ls.byKey[mapping.Right])}; after != before {
		t.Fatalf("join keys per side: %v before churning fresh keys, %v after", before, after)
	}
}
