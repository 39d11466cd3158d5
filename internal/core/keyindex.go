package core

import (
	"math/bits"
	"math/rand/v2"
)

// keyIndex is the join substrate of one right-side input partition: an
// open-addressing join key → row range lookup over the partition's columns,
// which are stored in key-group order (groups in first-appearance order,
// build order within a group). It is built once when partitioning finishes,
// held in the Prepared plan, and never written afterwards, so region pairing,
// the serial probe loop, prefetch workers and concurrent runs of one plan all
// read it without synchronization. Probing left rows in order and walking
// each matched range in order enumerates exactly join.Hash's (left outer,
// right build order inner) sequence.
type keyIndex struct {
	slots []keySlot // linear-probing table, two slots per distinct key
}

// keySlot is one table entry: the group of key occupies rows lo:hi of the
// partition. Groups are never empty, so hi == 0 marks a free slot.
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

// lookup returns the row range lo:hi of the partition's tuples carrying key,
// in build order; empty when there are none.
func (ix *keyIndex) lookup(key int64) (lo, hi int32) {
	if len(ix.slots) == 0 {
		return 0, 0
	}
	s := &ix.slots[find(ix.slots, key)]
	return s.lo, s.hi
}

// keyDirectory is region pairing's scratch view of one whole side: every
// join key of the side mapped to its (partition ordinal, tuple count) runs,
// ascending by ordinal. One probe per left tuple then yields that tuple's
// contribution to the join cardinality of every pair at once, where probing
// each partition's own index costs one probe per pair. It is assembled from
// the partitions' key indexes — one entry per distinct (key, partition), no
// tuple is touched — and does not outlive pairRegions.
type keyDirectory struct {
	slots []keySlot // key → runs[lo:hi]
	runs  []partRun // runs[0] is unused, so an occupied slot's hi is never 0
}

// partRun is one partition's share of a join key: n of its tuples carry it.
type partRun struct{ part, n int32 }

func newKeyDirectory(parts []*inputPartition) keyDirectory {
	total := 0 // distinct (key, partition) pairs: two index slots each
	for _, p := range parts {
		total += len(p.keys.slots) / 2
	}
	if total == 0 {
		return keyDirectory{}
	}
	d := keyDirectory{slots: make([]keySlot, 2*total), runs: make([]partRun, total+1)}
	for _, p := range parts {
		for _, g := range p.keys.slots {
			if g.hi != 0 {
				s := &d.slots[find(d.slots, g.key)]
				s.key = g.key
				s.hi++ // run count, until the layout below
			}
		}
	}
	off := int32(1)
	for i := range d.slots {
		if s := &d.slots[i]; s.hi != 0 {
			n := s.hi
			s.lo, s.hi = off, off // hi: the scatter cursor
			off += n
		}
	}
	for pi, p := range parts {
		for _, g := range p.keys.slots {
			if g.hi != 0 {
				s := &d.slots[find(d.slots, g.key)]
				d.runs[s.hi] = partRun{part: int32(pi), n: g.hi - g.lo}
				s.hi++
			}
		}
	}
	return d
}

// addJoinCardinalities adds to card[b], for every partition b of the side,
// the exact number of equi-join results between left and b — region
// pairing's MayJoin (> 0 means guaranteed populated, §III-A) and the
// σ·n_a·n_b term of Equations 4–5, for all pairs of one left partition in
// one pass over its join keys.
func (d *keyDirectory) addJoinCardinalities(left []int64, card []int) {
	if len(d.slots) == 0 {
		return
	}
	for _, key := range left {
		s := &d.slots[find(d.slots, key)]
		for _, r := range d.runs[s.lo:s.hi] {
			card[r.part] += int(r.n)
		}
	}
}

// groupByKey puts every freshly scattered right-side partition into its
// final form by one-pass hash grouping over its contiguous keys: count each
// key's rows through a scratch table, lay the groups out in first-appearance
// order, permute the rows into group order in place — the second and last
// copy of a right-side value — and copy the groups into a table sized to the
// distinct-key count. The key column is scratch from then on: each key lives
// once, in its slot.
func groupByKey(parts []*inputPartition) {
	largest := 0
	for _, p := range parts {
		largest = max(largest, p.len())
	}
	scratch := make([]keySlot, 2*largest)
	dest := make([]int32, largest) // of each row: its scratch slot, then its final position
	var groups []int32             // scratch slots in first-appearance order
	for _, p := range parts {
		n, keys := p.len(), p.jkeys
		p.jkeys = nil
		if n == 0 {
			continue
		}
		tbl := scratch[:2*n]
		clear(tbl)
		groups = groups[:0]
		for i, key := range keys {
			at := find(tbl, key)
			if tbl[at].hi == 0 {
				tbl[at].key = key
				groups = append(groups, int32(at))
			}
			tbl[at].hi++ // group size, until the layout below
			dest[i] = int32(at)
		}
		off := int32(0)
		for _, at := range groups {
			size := tbl[at].hi
			tbl[at].lo, tbl[at].hi = off, off // hi: the placement cursor
			off += size
		}
		for i := range dest[:n] {
			s := &tbl[dest[i]]
			dest[i] = s.hi
			s.hi++
		}
		p.permute(dest[:n])
		p.keys = keyIndex{slots: make([]keySlot, 2*len(groups))}
		for _, at := range groups {
			p.keys.slots[find(p.keys.slots, tbl[at].key)] = tbl[at]
		}
	}
}

// permute moves row i to position dest[i] for every row, in place; dest is a
// permutation and is consumed. Each swap sends one row home, so a row is
// written at most twice.
func (p *inputPartition) permute(dest []int32) {
	ar := p.arity
	for i := range dest {
		for j := int(dest[i]); j != i; j = int(dest[i]) {
			p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
			a, b := p.vals[i*ar:(i+1)*ar], p.vals[j*ar:(j+1)*ar]
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
			dest[i], dest[j] = dest[j], int32(j)
		}
	}
}
