package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/smj"
)

// TestGoldenStreamDigests pins the emission stream — every (LeftID, RightID,
// Out bits) in emission order, then the run's join and dominance counters —
// of four fixed problems to digests recorded before the input partitions
// went columnar; the two kd digests were re-recorded when the kd leaves' rows
// went from split-sorted to relation order (same result multiset and emission
// order as before, checked against the previous commit; DomComparisons follows
// the in-region enumeration order). The differential oracles compare the engine with itself and
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
		"anti d=3/grid":  0xe1d81ded6392dda4,
		"anti d=3/kd":    0x73a649ee09684b5e,
		"indep d=4/grid": 0xf7f4b7d9e176cd91,
		"indep d=4/kd":   0x7768bc747d561754,
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
