package grid

import "progxe/internal/par"

// BoxIndex indexes a fixed set of n boxes for corner-domination queries on
// an integer coordinate grid. Each box carries two corners — a source corner
// src(i) and a target corner dst(i), both d-dimensional — and every query is
// about the closed relation
//
//	x → y  iff  src(x) ≤ dst(y) componentwise,
//
// answered two ways: bulk per-box predecessor counts (InDegrees) and forward
// enumeration of the live successors of one box (EachOut). With src = minC+1
// and dst = maxC it is the §IV-B EL-Graph edge predicate minC(x) < maxC(y)
// in closed form. It has no non-test caller: the scheduler counts and scans
// that predicate all-pairs (internal/core/sched). It is what remains of the
// orthant index measured as Line 9's index (ROADMAP, "One live-region
// index"); its Fenwick orthant counts and packed-lane keys are gone.
//
// Both queries walk per-dimension buckets of corners, one dimension per
// query: the one whose walk covers the fewest corners.
//
// src coordinates may reach k[i] (the +1 shift at the top of a dimension);
// dst coordinates stay within [0, k[i]).
//
// Retire removes a box from the successor (dst) side only: EachOut stops
// enumerating it, while InDegrees keeps counting it as a predecessor.
type BoxIndex struct {
	src, dst [][]int // aliased caller corners, read-only
	k        []int

	byDst [][][]int32 // [dim][v]: live boxes with dst[dim] == v, ascending id
	// sufDst[dim][v] counts the boxes with dst[dim] ≥ v at build. Retired
	// boxes stay counted: the count only steers which dimension EachOut
	// walks.
	sufDst [][]int32
}

// NewBoxIndex builds the index over n (src, dst) corner pairs on a grid with
// k[i] values per dimension. The corner slices are aliased, not copied, and
// must stay immutable for the index's lifetime.
func NewBoxIndex(src, dst [][]int, k []int) *BoxIndex {
	d := len(k)
	ix := &BoxIndex{src: src, dst: dst, k: k,
		byDst: make([][][]int32, d), sufDst: make([][]int32, d)}
	for i := 0; i < d; i++ {
		ix.byDst[i] = make([][]int32, k[i])
		ix.sufDst[i] = make([]int32, k[i]+1)
	}
	for id, c := range dst {
		for i, v := range c {
			ix.byDst[i][v] = append(ix.byDst[i][v], int32(id))
		}
	}
	for i := 0; i < d; i++ {
		for v := k[i] - 1; v >= 0; v-- {
			ix.sufDst[i][v] = ix.sufDst[i][v+1] + int32(len(ix.byDst[i][v]))
		}
	}
	return ix
}

// EachOut enumerates the live boxes y with dst(y) ≥ src(x) componentwise —
// the successors of x — in unspecified order. x itself is enumerated when it
// is live and satisfies the relation; callers that must not see it retire it
// first.
func (ix *BoxIndex) EachOut(x int32, fn func(y int32)) {
	q := ix.src[x]
	best, bestN := -1, int32(0)
	for i, v := range q {
		n := ix.sufDst[i][v] // 0 at v == k[i]: no dst reaches it
		if best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	if bestN == 0 {
		return
	}
	for v := q[best]; v < ix.k[best]; v++ {
		for _, y := range ix.byDst[best][v] {
			if LeqAll(q, ix.dst[y]) {
				fn(y)
			}
		}
	}
}

// Retire removes a box from the successor side: subsequent EachOut calls
// skip it. InDegrees is unaffected. Retiring twice is a no-op.
func (ix *BoxIndex) Retire(id int32) {
	for i, v := range ix.dst[id] {
		bucket := ix.byDst[i][v]
		lo, hi := 0, len(bucket)
		for lo < hi {
			mid := (lo + hi) / 2
			if bucket[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(bucket) && bucket[lo] == id {
			copy(bucket[lo:], bucket[lo+1:])
			ix.byDst[i][v] = bucket[:len(bucket)-1]
		}
	}
}

// InDegrees returns, for every box y, its predecessor count |{x : src(x) ≤
// dst(y) componentwise}| — y itself included when it satisfies the relation;
// callers whose predicate excludes self subtract it. Each count walks the
// src-corner buckets of one dimension up to dst(y), the dimension with the
// fewest corners below it. The query pass fans out across workers (0 or 1 =
// serial) with no merge step, so the result is identical for any worker
// count. The buckets are scratch and do not outlive the call.
func (ix *BoxIndex) InDegrees(workers int) []int32 {
	out := make([]int32, len(ix.src))
	if len(ix.src) == 0 {
		return out
	}
	d := len(ix.k)
	// src values may reach k[i], so the bucket arrays carry one extra slot.
	bySrc := make([][][]int32, d)
	preSrc := make([][]int32, d)
	for i := 0; i < d; i++ {
		bySrc[i] = make([][]int32, ix.k[i]+1)
		preSrc[i] = make([]int32, ix.k[i]+2)
	}
	for id, s := range ix.src {
		for i, v := range s {
			bySrc[i][v] = append(bySrc[i][v], int32(id))
		}
	}
	for i := 0; i < d; i++ {
		for v := 0; v <= ix.k[i]; v++ {
			preSrc[i][v+1] = preSrc[i][v] + int32(len(bySrc[i][v]))
		}
	}
	par.For(len(ix.dst), workers, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			q := ix.dst[y]
			best, bestN := -1, int32(0)
			for i, v := range q {
				n := preSrc[i][v+1]
				if best < 0 || n < bestN {
					best, bestN = i, n
				}
			}
			if bestN == 0 {
				continue
			}
			n := int32(0)
			for v := 0; v <= q[best]; v++ {
				for _, x := range bySrc[best][v] {
					if LeqAll(ix.src[x], q) {
						n++
					}
				}
			}
			out[y] = n
		}
	})
	return out
}
