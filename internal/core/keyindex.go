package core

import (
	"math/bits"
	"math/rand/v2"

	"progxe/internal/relation"
)

// keyIndex is the join substrate of one right-side input partition: the
// partition's tuple indices grouped by join key (build order within a
// group) plus an open-addressing key → group lookup. It is built once when
// partitioning finishes, held in the Prepared plan, and never written
// afterwards, so region pairing, the serial probe loop, prefetch workers
// and concurrent runs of one plan all read it without synchronization.
// Probing left tuples in order and walking each matched group in order
// enumerates exactly join.Hash's (left outer, right build order inner)
// sequence.
type keyIndex struct {
	rows  []int32   // tuple indices, grouped by join key
	slots []keySlot // linear-probing table, two slots per distinct key
}

// keySlot is one table entry: the group of key occupies rows[lo:hi]. Groups
// are never empty, so hi == 0 marks a free slot.
type keySlot struct {
	key    int64
	lo, hi int32
}

// hashSeed keys the slot hash per process, as Go's maps do: join keys arrive
// from uploaded relations, and against a fixed hash a crafted key set would
// pile onto one probe chain and make index construction quadratic. Slot
// placement never shows in the enumeration order, so runs stay deterministic.
var hashSeed = rand.Uint64()

// slotOf maps a key to its home slot in a table of n slots: a seeded folded
// Fibonacci multiply — consecutive keys, the common case, spread evenly
// whatever the seed — reduced by multiply-high, which needs no power-of-two
// table.
func slotOf(key int64, n int) int {
	hi, lo := bits.Mul64(uint64(key)^hashSeed, 0x9e3779b97f4a7c15)
	i, _ := bits.Mul64(hi^lo, uint64(n))
	return int(i)
}

// find returns the position of the slot holding key, or of the free slot
// where it belongs. The table always keeps a free slot, so the probe
// terminates.
func find(slots []keySlot, key int64) int {
	for i := slotOf(key, len(slots)); ; {
		if s := &slots[i]; s.hi == 0 || s.key == key {
			return i
		}
		if i++; i == len(slots) {
			i = 0
		}
	}
}

// lookup returns the indices of the partition's tuples carrying key, in
// build order; empty when there are none.
func (ix *keyIndex) lookup(key int64) []int32 {
	if len(ix.slots) == 0 {
		return nil
	}
	s := &ix.slots[find(ix.slots, key)]
	return ix.rows[s.lo:s.hi]
}

// joinCardinality returns the exact number of equi-join results between
// left and the indexed partition — region pairing's MayJoin (> 0 means
// guaranteed populated, §III-A) and the σ·n_a·n_b term of Equations 4–5 in
// one pass over left.
func (ix *keyIndex) joinCardinality(left []relation.Tuple) int {
	if len(ix.slots) == 0 {
		return 0
	}
	n := 0
	for i := range left {
		// The slot is read in place: lookup does not inline, and a call per
		// tuple showed as +1 ms of first-result time on 20K-tuple inputs.
		s := &ix.slots[find(ix.slots, left[i].JoinKey)]
		n += int(s.hi - s.lo)
	}
	return n
}

// indexKeys builds the key index of every partition by one-pass hash
// grouping: count each key's tuples through a scratch table, lay the groups
// out in first-appearance order, scatter the tuple indices, then copy the
// groups into a table sized to the distinct-key count. The row arrays are
// carved out of one backing array; the scratch does not outlive the call.
func indexKeys(parts []*inputPartition) {
	total, largest := 0, 0
	for _, p := range parts {
		total += len(p.tuples)
		largest = max(largest, len(p.tuples))
	}
	rows := make([]int32, total)
	scratch := make([]keySlot, 2*largest)
	slotAt := make([]int32, largest) // scratch slot of each tuple
	var groups []int32               // scratch slots in first-appearance order
	for _, p := range parts {
		n := len(p.tuples)
		if n == 0 {
			continue
		}
		tbl := scratch[:2*n]
		clear(tbl)
		groups = groups[:0]
		for i := range p.tuples {
			key := p.tuples[i].JoinKey
			at := find(tbl, key)
			if tbl[at].hi == 0 {
				tbl[at].key = key
				groups = append(groups, int32(at))
			}
			tbl[at].hi++ // group size, until the layout below
			slotAt[i] = int32(at)
		}
		off := int32(0)
		for _, at := range groups {
			size := tbl[at].hi
			tbl[at].lo, tbl[at].hi = off, off // hi: the scatter cursor
			off += size
		}
		p.keys = keyIndex{rows: rows[:n:n], slots: make([]keySlot, 2*len(groups))}
		rows = rows[n:]
		for i := range p.tuples {
			s := &tbl[slotAt[i]]
			p.keys.rows[s.hi] = int32(i)
			s.hi++
		}
		for _, at := range groups {
			p.keys.slots[find(p.keys.slots, tbl[at].key)] = tbl[at]
		}
	}
}
