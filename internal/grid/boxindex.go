package grid

import "progxe/internal/par"

// BoxIndexFenLimit is the default cap on the cell count of the Fenwick tree
// backing orthant counts; larger coordinate grids fall back to the
// per-dimension bucket-scan path. Callers with test or tuning needs pass
// their own limit to NewBoxIndex.
const BoxIndexFenLimit = 1 << 21

// BoxIndex indexes a fixed set of n boxes for corner-domination queries on
// an integer coordinate grid. Each box carries two corners — a source corner
// src(i) and a target corner dst(i), both d-dimensional — and every query is
// about the closed relation
//
//	x → y  iff  src(x) ≤ dst(y) componentwise,
//
// answered two ways: bulk per-box predecessor counts (InDegrees) and forward
// enumeration of the live successors of one box (EachOut). Its consumer, the
// scheduler layer's EL-Graph (internal/core/sched), passes src = minC+1 and
// dst = maxC, turning the strict §IV-B edge predicate minC(x) < maxC(y)
// everywhere into the closed form above.
//
// The machinery is the cellIndex pattern: per-dimension grid buckets of dst
// corners with the packed coordinate key inlined per entry and per-dimension
// live-count Fenwicks so the cheapest dimension to scan is an O(log k)
// decision; InDegrees counts orthants through a scratch d-dimensional
// Fenwick over src corners when the grid fits the limit. Coordinates pack
// into 8-bit SWAR lanes when d ≤ 8: exactly when every dimension has ≤ 128
// values (one KeyLeq decides the comparison), and as a monotone coarse
// prefilter — lane = value >> shift — on wider dimensions, where survivors
// are confirmed by the coordinate-slice compare. More than 8 dimensions
// compares slices directly.
//
// src coordinates may reach k[i] (the sched layer's +1 shift at the top of a
// dimension); dst coordinates stay within [0, k[i]).
//
// Retire removes a box from the successor (dst) side only: EachOut stops
// enumerating it, while InDegrees keeps counting it as a predecessor — a
// scheduled region's in-edges are never consulted again.
type BoxIndex struct {
	src, dst [][]int // aliased caller corners, read-only
	k        []int
	d        int

	keyed bool     // d ≤ 8: packed lane keys exist
	exact bool     // keyed and every dimension fits 128 values: keys decide
	shift []uint   // per-dimension lane shift (0 when exact)
	sKey  []uint64 // packed (possibly coarse) src key per box
	dKey  []uint64 // packed (possibly coarse) dst key per box

	byDst [][][]boxEntry // [dim][v]: live boxes with dst[dim] == v, ascending id
	// sufFen[dim] counts live boxes per dst bucket (suffix counts in
	// O(log k)). nil for a dimension wider than the Fenwick cell cap:
	// liveSuffix then reports the full live count, so steering never
	// prefers that dimension — scans stay correct, merely unguided.
	sufFen []*Fenwick
	live   int32

	fenLimit int
	updates  int // point updates on InDegrees' src-corner Fenwick
}

// boxEntry is one box in a dst bucket, carrying its packed key inline so
// filtering runs as a sequential scan without chasing a side table.
type boxEntry struct {
	id  int32
	key uint64
}

// NewBoxIndex builds the index over n (src, dst) corner pairs on a grid with
// k[i] values per dimension. fenLimit caps the cell count of the orthant
// Fenwick (≤ 0 selects BoxIndexFenLimit). The corner slices are aliased, not
// copied, and must stay immutable for the index's lifetime.
func NewBoxIndex(src, dst [][]int, k []int, fenLimit int) *BoxIndex {
	if fenLimit <= 0 {
		fenLimit = BoxIndexFenLimit
	}
	ix := &BoxIndex{src: src, dst: dst, k: k, d: len(k), fenLimit: fenLimit}
	ix.keyed = ix.d <= 8
	ix.exact = ix.keyed
	ix.shift = make([]uint, ix.d)
	for i, n := range k {
		for (n-1)>>ix.shift[i] > 127 {
			ix.shift[i]++
			ix.exact = false
		}
	}
	ix.byDst = make([][][]boxEntry, ix.d)
	ix.sufFen = make([]*Fenwick, ix.d)
	for i := 0; i < ix.d; i++ {
		ix.byDst[i] = make([][]boxEntry, k[i])
		ix.sufFen[i], _ = NewFenwick(k[i : i+1])
	}
	if ix.keyed {
		ix.sKey = make([]uint64, len(src))
		ix.dKey = make([]uint64, len(src))
	}
	ix.live = int32(len(src))
	for id := range src {
		var dk uint64
		if ix.keyed {
			ix.sKey[id] = ix.packKey(src[id])
			dk = ix.packKey(dst[id])
			ix.dKey[id] = dk
		}
		for i, v := range dst[id] {
			ix.byDst[i][v] = append(ix.byDst[i][v], boxEntry{id: int32(id), key: dk})
		}
	}
	for i := 0; i < ix.d; i++ {
		if ix.sufFen[i] == nil {
			continue
		}
		for v := 0; v < k[i]; v++ {
			if n := len(ix.byDst[i][v]); n > 0 {
				q := [1]int{v}
				ix.sufFen[i].Add(q[:], int32(n))
			}
		}
	}
	return ix
}

// packKey packs coordinates into 8-bit lanes under the per-dimension coarse
// shift. With all shifts zero the key is exact; otherwise the map is
// monotone per lane, so key-≤ is a necessary condition for coordinate-≤ and
// survivors need the slice compare.
func (ix *BoxIndex) packKey(coords []int) uint64 {
	var key uint64
	for i, v := range coords {
		key |= uint64(v>>ix.shift[i]) << (8 * i)
	}
	return key
}

// leqSrcDst reports src(x) ≤ dst(y) componentwise through the cheapest
// conclusive path: one packed compare when keys are exact, the coarse-key
// prefilter plus slice confirm otherwise.
func (ix *BoxIndex) leqSrcDst(x, y int32) bool {
	if ix.keyed {
		if !KeyLeq(ix.sKey[x], ix.dKey[y]) {
			return false
		}
		if ix.exact {
			return true
		}
	}
	return LeqAll(ix.src[x], ix.dst[y])
}

// Live returns the number of boxes not yet retired.
func (ix *BoxIndex) Live() int { return int(ix.live) }

// FenwickUpdates reports the point updates applied to the src-corner orthant
// Fenwick (0 when the bucket-scan fallback ran instead).
func (ix *BoxIndex) FenwickUpdates() int { return ix.updates }

// liveSuffix returns the number of live boxes with dst[dim] ≥ v — exact
// when the dimension carries a suffix Fenwick, the full live count (a safe
// overestimate that steers scans elsewhere) when it is too wide for one.
func (ix *BoxIndex) liveSuffix(dim, v int) int32 {
	if v <= 0 {
		return ix.live
	}
	if v >= ix.k[dim] {
		return 0
	}
	if ix.sufFen[dim] == nil {
		return ix.live
	}
	q := [1]int{v - 1}
	return ix.live - int32(ix.sufFen[dim].Count(q[:]))
}

// EachOut enumerates the live boxes y with dst(y) ≥ src(x) componentwise —
// the successors of x — in unspecified order. x itself is enumerated when it
// is live and satisfies the relation; callers that must not see it retire it
// first (the scheduler). The cheapest dimension by live suffix count is
// walked upward from src(x), entries filtered by packed key and — when keys
// are coarse — the coordinate-slice compare.
func (ix *BoxIndex) EachOut(x int32, fn func(y int32)) {
	q := ix.src[x]
	var key uint64
	if ix.keyed {
		key = ix.sKey[x]
	}
	best, bestN := -1, int32(0)
	for i, v := range q {
		n := ix.liveSuffix(i, v)
		if best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	if bestN == 0 {
		return
	}
	buckets := ix.byDst[best]
	if ix.exact {
		for v := q[best]; v < ix.k[best]; v++ {
			for _, e := range buckets[v] {
				if KeyLeq(key, e.key) {
					fn(e.id)
				}
			}
		}
		return
	}
	if ix.keyed {
		for v := q[best]; v < ix.k[best]; v++ {
			for _, e := range buckets[v] {
				if KeyLeq(key, e.key) && LeqAll(q, ix.dst[e.id]) {
					fn(e.id)
				}
			}
		}
		return
	}
	for v := q[best]; v < ix.k[best]; v++ {
		for _, e := range buckets[v] {
			if LeqAll(q, ix.dst[e.id]) {
				fn(e.id)
			}
		}
	}
}

// Retire removes a box from the successor side: subsequent EachOut calls
// skip it, and the live suffix counts steering the scans shrink. InDegrees
// is unaffected. Retiring twice is a no-op.
func (ix *BoxIndex) Retire(id int32) {
	removed := false
	for i, v := range ix.dst[id] {
		bucket := ix.byDst[i][v]
		lo, hi := 0, len(bucket)
		for lo < hi {
			mid := (lo + hi) / 2
			if bucket[mid].id < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(bucket) && bucket[lo].id == id {
			copy(bucket[lo:], bucket[lo+1:])
			ix.byDst[i][v] = bucket[:len(bucket)-1]
			if ix.sufFen[i] != nil {
				q := [1]int{v}
				ix.sufFen[i].Add(q[:], -1)
			}
			removed = true
		}
	}
	if removed {
		ix.live--
	}
}

// srcFenwick builds the orthant-count Fenwick over the src corners, or
// returns nil when the grid exceeds the limit.
func (ix *BoxIndex) srcFenwick() *Fenwick {
	dims := make([]int, ix.d)
	total := 1
	for i := range dims {
		var hi int
		for _, s := range ix.src {
			if s[i] > hi {
				hi = s[i]
			}
		}
		dims[i] = hi + 1
		if total > ix.fenLimit/dims[i] {
			return nil
		}
		total *= dims[i]
	}
	fen, err := NewFenwick(dims)
	if err != nil {
		return nil
	}
	for _, s := range ix.src {
		fen.Add(s, 1)
	}
	ix.updates += len(ix.src)
	return fen
}

// InDegrees returns, for every box y, its predecessor count |{x : src(x) ≤
// dst(y) componentwise}| — y itself included when it satisfies the relation;
// callers whose predicate excludes self subtract it. The query pass fans out
// across workers (0 or 1 = serial) with no merge step, so the result is
// identical for any worker count: the Fenwick path when the grid fits the
// limit, a per-dimension bucket prefix scan of the src corners beyond it.
// Both structures are scratch and do not outlive the call.
func (ix *BoxIndex) InDegrees(workers int) []int32 {
	out := make([]int32, len(ix.src))
	if len(ix.src) == 0 {
		return out
	}
	if fen := ix.srcFenwick(); fen != nil {
		par.For(len(ix.dst), workers, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				out[y] = int32(fen.Count(ix.dst[y]))
			}
		})
		return out
	}
	// src values may reach k[i], so the bucket arrays carry one extra slot.
	bySrc := make([][][]int32, ix.d)
	preSrc := make([][]int32, ix.d)
	for i := 0; i < ix.d; i++ {
		bySrc[i] = make([][]int32, ix.k[i]+1)
		preSrc[i] = make([]int32, ix.k[i]+2)
	}
	for id, s := range ix.src {
		for i, v := range s {
			bySrc[i][v] = append(bySrc[i][v], int32(id))
		}
	}
	for i := 0; i < ix.d; i++ {
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
					if ix.leqSrcDst(x, int32(y)) {
						n++
					}
				}
			}
			out[y] = n
		}
	})
	return out
}
