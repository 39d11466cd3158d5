package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// TestGoldenStreamDigests pins the emission stream — every (LeftID, RightID,
// Out bits) in emission order, then the run's join and dominance counters —
// of four fixed problems to digests recorded before the input partitions
// went columnar; the two kd digests were re-recorded when the kd leaves' rows
// went from split-sorted to relation order (same result multiset and emission
// order as before, checked against the previous commit; DomComparisons follows
// the in-region enumeration order). All four were re-recorded when closure
// picks took over the region order: the result files of the previous commit
// and of the change, sorted, are byte-identical for every fixture at workers
// 0, 1, 2 and 4, while emission order, JoinResults (kd) and DomComparisons
// moved. The differential oracles compare the engine with itself and
// with references that share its partitioner; only constants notice a change
// of the enumeration order that every path makes together.
func TestGoldenStreamDigests(t *testing.T) {
	problems := []struct {
		name string
		p    *smj.Problem
	}{
		{"anti d=3", smokeProblem(t, 1500, 3, datagen.AntiCorrelated, 0.02, 2301)},
		{"indep d=4", smokeProblem(t, 1500, 4, datagen.Independent, 0.02, 2302)},
	}
	want := map[string]uint64{
		"anti d=3/grid":  0xd36ba9e0251e90ea,
		"anti d=3/kd":    0x4a73682e4d8dafa2,
		"indep d=4/grid": 0x9baf84ec78c95349,
		"indep d=4/kd":   0x6507a435a5d2c916,
	}
	for _, pr := range problems {
		for _, part := range []Partitioning{PartitionGrid, PartitionKD} {
			for _, workers := range []int{0, 2} {
				name := fmt.Sprintf("%s/%s", pr.name, part)
				h := fnv.New64a()
				word := func(x uint64) {
					var b [8]byte
					for i := range b {
						b[i] = byte(x >> (8 * i))
					}
					h.Write(b[:])
				}
				n := 0
				stats, err := New(Options{Partitioning: part, Workers: workers}).Run(pr.p, smj.SinkFunc(func(r smj.Result) {
					n++
					word(uint64(r.LeftID))
					word(uint64(r.RightID))
					for _, x := range r.Out {
						word(math.Float64bits(x))
					}
				}))
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if n < 20 {
					t.Fatalf("%s workers=%d: only %d results, the digest pins nothing", name, workers, n)
				}
				word(uint64(stats.JoinResults))
				word(uint64(stats.DomComparisons))
				if got := h.Sum64(); got != want[name] {
					t.Errorf("%s workers=%d: stream digest %#016x, want %#016x (%d results)", name, workers, got, want[name], n)
				}
			}
		}
	}
}

// TestLiveGoldenDigest pins the live path's output and work: the records
// Build streams and those of a seeded run of alternating inserts and deletes
// — every result (LeftID, RightID, Out bits) and retract (LeftID, RightID) in
// order — then every LiveStats counter. The differential tests check the net
// result set, which a change of retract order or of the number of dominance
// tests leaves alone; this digest does not.
func TestLiveGoldenDigest(t *testing.T) {
	problems := []struct {
		name string
		p    *smj.Problem
	}{
		{"anti d=3", smokeProblem(t, 800, 3, datagen.AntiCorrelated, 0.02, 2311)},
		{"indep d=4", smokeProblem(t, 800, 4, datagen.Independent, 0.02, 2312)},
	}
	want := map[string]uint64{
		"anti d=3":  0xdf8f2765740dd5cd,
		"indep d=4": 0xd6d68db69eaeafe3,
	}
	for pi, pr := range problems {
		h := fnv.New64a()
		word := func(x uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
		sink := &digestSink{word: word}
		st, err := StageLive(pr.p)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		ls, err := st.BuildContext(context.Background(), sink)
		if err != nil {
			t.Fatal(err)
		}
		built := sink.results

		ids := [2][]int64{}
		var keys []int64
		for s, r := range []*relation.Relation{pr.p.Left, pr.p.Right} {
			for _, tup := range r.Tuples {
				ids[s] = append(ids[s], tup.ID)
				keys = append(keys, tup.JoinKey)
			}
		}
		rng := rand.New(rand.NewPCG(uint64(pi), 43))
		nextID := int64(1 << 30)
		d := ls.arity[mapping.Left]
		for step := 0; step < 600; step++ {
			side := mapping.Side(rng.IntN(2))
			if step%2 == 1 {
				i := rng.IntN(len(ids[side]))
				id := ids[side][i]
				ids[side] = slices.Delete(ids[side], i, i+1)
				if err := ls.ApplyDelete(side, id, sink); err != nil {
					t.Fatal(err)
				}
				continue
			}
			vals := make([]float64, d)
			for i := range vals {
				vals[i] = rng.Float64()
			}
			tup := relation.Tuple{ID: nextID, Vals: vals, JoinKey: keys[rng.IntN(len(keys))]}
			nextID++
			ids[side] = append(ids[side], tup.ID)
			if err := ls.ApplyInsert(side, tup, sink); err != nil {
				t.Fatal(err)
			}
		}
		st2 := ls.Stats()
		if built < 20 || st2.Retractions == 0 || st2.Promotions == 0 {
			t.Fatalf("%s: %d built results, %+v: the digest pins too little", pr.name, built, st2)
		}
		for _, x := range []int{st2.Inserts, st2.Deletes, st2.Results, st2.Retractions, st2.Promotions, st2.Comparisons} {
			word(uint64(x))
		}
		if got := h.Sum64(); got != want[pr.name] {
			t.Errorf("%s: live digest %#016x, want %#016x (%d built, %+v)", pr.name, got, want[pr.name], built, st2)
		}
	}
}

// digestSink feeds every live record into a running hash.
type digestSink struct {
	word    func(uint64)
	results int
}

func (s *digestSink) Result(r smj.Result) {
	s.results++
	s.word(1)
	s.word(uint64(r.LeftID))
	s.word(uint64(r.RightID))
	for _, x := range r.Out {
		s.word(math.Float64bits(x))
	}
}

func (s *digestSink) Retract(leftID, rightID int64) {
	s.word(2)
	s.word(uint64(leftID))
	s.word(uint64(rightID))
}
