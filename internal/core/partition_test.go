package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// testPartitions builds one side's partitions from explicit member lists —
// partition i holds members[i] in the given build order — through the
// partitioners' own constructor, scatter and (right side) key grouping.
func testPartitions(side mapping.Side, arity int, members ...[]relation.Tuple) []*inputPartition {
	counts := make([]int, len(members))
	for i, m := range members {
		counts[i] = len(m)
	}
	parts := newPartitions(arity, counts)
	for i, m := range members {
		for j := range m {
			parts[i].set(j, &m[j])
		}
	}
	return finishPartitions(parts, side)
}

// tuplesOf reads a partition's rows back as tuples, in stored order (Vals
// alias the columns). A right partition's keys come from its index slots.
func tuplesOf(p *inputPartition) []relation.Tuple {
	keys := p.jkeys
	if keys == nil {
		keys = make([]int64, p.len())
		for _, s := range p.keys.slots {
			for k := s.lo; k < s.hi; k++ {
				keys[k] = s.key
			}
		}
	}
	out := make([]relation.Tuple, p.len())
	for i := range out {
		out[i] = relation.Tuple{ID: p.ids[i], Vals: p.row(i), JoinKey: keys[i]}
	}
	return out
}

// columnsProblem is a problem over three-attribute relations whose mapping
// functions read attributes 0 and 2 of each side, or nothing of the left
// side when leftUsed is false.
func columnsProblem(n int, leftUsed bool, key func(*rand.Rand, int) int64, rng *rand.Rand) *smj.Problem {
	rel := func(name string, side int) *relation.Relation {
		r := relation.New(relation.MustSchema(name, []string{"a", "b", "c"}, "k"))
		for i := 0; i < n; i++ {
			// A coarse lattice: duplicate points, shared cell boundaries.
			r.MustAppend(relation.Tuple{
				ID:      int64(1000 + i),
				Vals:    []float64{float64(rng.IntN(40)) / 8, rng.Float64(), float64(rng.IntN(40)) / 8},
				JoinKey: key(rng, side),
			})
		}
		return r
	}
	x := mapping.Expr(mapping.A(mapping.Right, 0, ""))
	if leftUsed {
		x = mapping.Sum(mapping.A(mapping.Left, 0, ""), mapping.A(mapping.Right, 0, ""))
	}
	y := mapping.Expr(mapping.A(mapping.Right, 2, ""))
	if leftUsed {
		y = mapping.Sum(mapping.A(mapping.Left, 2, ""), mapping.A(mapping.Right, 2, ""))
	}
	return &smj.Problem{
		Left: rel("L", 0), Right: rel("R", 1),
		Maps: mapping.MustSet(mapping.Func{Name: "x", Expr: x}, mapping.Func{Name: "y", Expr: y}),
		Pref: preference.AllLowest(2),
	}
}

// TestPartitionColumns checks the column layout both partitioners produce,
// on both sides: the rows are the
// relation's tuples (each once, values copied, never aliased), every
// partition's box is tight, members are in relation order, grid partitions
// ascend in cell order, and a right partition is a sequence of
// contiguous key groups — groups in first-appearance order, build order
// within — that its index's slots describe exactly.
func TestPartitionColumns(t *testing.T) {
	few, hot := keyShapes[0].key, keyShapes[1].key // "duplicates", "hot key"
	cases := []struct {
		name     string
		n        int
		leftUsed bool
		key      func(*rand.Rand, int) int64
	}{
		{"few keys", 700, true, few},
		{"hot key", 500, true, hot},
		{"left side unused", 300, false, few},
		{"one tuple", 1, true, few},
		{"empty", 0, true, few},
	}
	for _, c := range cases {
		for _, method := range []Partitioning{PartitionGrid, PartitionKD} {
			for _, side := range []mapping.Side{mapping.Left, mapping.Right} {
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, method, side), func(t *testing.T) {
					p := columnsProblem(c.n, c.leftUsed, c.key, rand.New(rand.NewPCG(23, uint64(c.n))))
					rel := p.Left
					if side == mapping.Right {
						rel = p.Right
					}
					var parts []*inputPartition
					var err error
					if method == PartitionKD {
						parts, err = partitionInputKD(rel, p.Maps, side, 16)
					} else {
						parts, err = partitionInput(rel, p.Maps, side, 5)
					}
					if err != nil {
						t.Fatal(err)
					}
					checkColumns(t, rel, parts, p.Maps.UsedAttrs(side), side, method)
				})
			}
		}
	}
}

func checkColumns(t *testing.T, rel *relation.Relation, parts []*inputPartition, used []int, side mapping.Side, method Partitioning) {
	t.Helper()
	switch {
	case len(rel.Tuples) == 0:
		if parts != nil {
			t.Fatalf("empty relation yields %d partitions", len(parts))
		}
		return
	case len(used) == 0 && len(parts) != 1:
		t.Fatalf("a side with no used attribute yields %d partitions, want 1", len(parts))
	case len(used) > 0 && len(rel.Tuples) > 100 && len(parts) < 4:
		t.Fatalf("only %d partitions: the fixture exercises nothing", len(parts))
	}
	arity := rel.Schema.Arity()
	byID := make(map[int64]int, len(rel.Tuples)) // ID → relation position
	for i, tu := range rel.Tuples {
		byID[tu.ID] = i
	}
	seen := make(map[int64]bool, len(rel.Tuples))
	lastCell := -1
	for pi, p := range parts {
		if p.id != pi || p.arity != arity || p.len() == 0 || len(p.vals) != p.len()*arity {
			t.Fatalf("partition %d: id %d, arity %d, %d rows, %d values", pi, p.id, p.arity, p.len(), len(p.vals))
		}
		if cap(p.ids) != p.len() || cap(p.vals) != len(p.vals) {
			t.Fatalf("partition %d carries append slack", pi)
		}
		if (side == mapping.Left) != (p.jkeys != nil) || (side == mapping.Right) != (p.keys.slots != nil) {
			t.Fatalf("%s partition %d: %d keys, %d index slots", side, pi, len(p.jkeys), len(p.keys.slots))
		}
		lo, hi := slices.Clone(p.row(0)), slices.Clone(p.row(0))
		rows := tuplesOf(p)
		for i, row := range rows {
			src := rel.Tuples[byID[row.ID]]
			if seen[row.ID] {
				t.Fatalf("tuple %d stored twice", row.ID)
			}
			seen[row.ID] = true
			if row.JoinKey != src.JoinKey || !slices.Equal(row.Vals, src.Vals) {
				t.Fatalf("partition %d row %d: %+v, relation has %+v", pi, i, row, src)
			}
			if &row.Vals[0] == &src.Vals[0] {
				t.Fatalf("partition %d row %d aliases the relation's values", pi, i)
			}
			for j, v := range row.Vals {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
		if !slices.Equal(p.rect.Lower, lo) || !slices.Equal(p.rect.Upper, hi) {
			t.Fatalf("partition %d: box %v, tight box [%v %v]", pi, p.rect, lo, hi)
		}

		// Build order is relation order, for grid cells and kd leaves alike.
		order := make([]int, len(rows)) // relation positions, stored order
		for i, row := range rows {
			order[i] = byID[row.ID]
		}
		if side == mapping.Left {
			if !slices.IsSorted(order) {
				t.Fatalf("left partition %d is not in relation order: %v", pi, order)
			}
		} else {
			checkGroups(t, pi, p, rows, order)
		}

		if method == PartitionGrid && len(used) > 0 {
			// Ascending cell order: with 5 cells per used dimension over
			// the lattice's bounds, recompute each member's cell.
			cell := gridCellOf(rel, used, 5, rows[0].Vals)
			for _, row := range rows {
				if c := gridCellOf(rel, used, 5, row.Vals); c != cell {
					t.Fatalf("partition %d mixes cells %d and %d", pi, cell, c)
				}
			}
			if cell <= lastCell {
				t.Fatalf("partition %d (cell %d) follows cell %d", pi, cell, lastCell)
			}
			lastCell = cell
		}
	}
	if len(seen) != len(rel.Tuples) {
		t.Fatalf("partitions hold %d of %d tuples", len(seen), len(rel.Tuples))
	}
}

// checkGroups verifies a right partition's key-group order against its
// index: the slots tile the rows, each group holds one key, groups appear
// in the order of their first member's build position, members ascend.
func checkGroups(t *testing.T, pi int, p *inputPartition, rows []relation.Tuple, order []int) {
	t.Helper()
	var groups []keySlot
	for _, s := range p.keys.slots {
		if s.hi != 0 {
			groups = append(groups, s)
		}
	}
	slices.SortFunc(groups, func(a, b keySlot) int { return int(a.lo - b.lo) })
	if 2*len(groups) != len(p.keys.slots) {
		t.Fatalf("partition %d: %d groups in %d slots", pi, len(groups), len(p.keys.slots))
	}
	next, lastFirst := int32(0), -1
	keys := map[int64]bool{}
	for _, g := range groups {
		if g.lo != next || g.hi <= g.lo || keys[g.key] {
			t.Fatalf("partition %d: groups do not tile the rows: %+v", pi, groups)
		}
		next, keys[g.key] = g.hi, true
		for k := g.lo; k < g.hi; k++ {
			if rows[k].JoinKey != g.key {
				t.Fatalf("partition %d row %d carries key %d in group %d", pi, k, rows[k].JoinKey, g.key)
			}
		}
		if lo, hi := p.keys.lookup(g.key); lo != g.lo || hi != g.hi {
			t.Fatalf("partition %d: lookup(%d) = %d:%d, slot %d:%d", pi, g.key, lo, hi, g.lo, g.hi)
		}
		if !slices.IsSorted(order[g.lo:g.hi]) {
			t.Fatalf("partition %d group %d is not in build order: %v", pi, g.key, order[g.lo:g.hi])
		}
		if order[g.lo] < lastFirst {
			t.Fatalf("partition %d: group %d appears before its predecessor's first member", pi, g.key)
		}
		lastFirst = order[g.lo]
	}
	if int(next) != len(rows) {
		t.Fatalf("partition %d: groups cover %d of %d rows", pi, next, len(rows))
	}
	if lo, hi := p.keys.lookup(math.MinInt64 + 12345); lo != hi {
		t.Fatalf("partition %d: absent key matches rows %d:%d", pi, lo, hi)
	}
}

// gridCellOf recomputes the flat cell of a tuple on the k-per-dimension
// uniform grid over the relation's used-attribute bounds, independently of
// internal/grid.
func gridCellOf(rel *relation.Relation, used []int, k int, vals []float64) int {
	flat := 0
	for _, a := range used {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, tu := range rel.Tuples {
			lo, hi = min(lo, tu.Vals[a]), max(hi, tu.Vals[a])
		}
		c := 0
		if hi > lo {
			c = int(math.Floor((vals[a] - lo) / ((hi - lo) / float64(k))))
		}
		flat = flat*k + min(max(c, 0), k-1)
	}
	return flat
}

// TestKDGroupsInLeafOrder ties the two sides' kd partitionings together: the
// right side's rows must be the stable key-grouping of the left-side
// (ungrouped) partitioning of the same relation, leaf by leaf.
func TestKDGroupsInLeafOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	p := columnsProblem(600, true, keyShapes[0].key, rng)
	// Both sides' functions read attributes 0 and 2, so partitioning the
	// right relation "as the left side" yields its leaves ungrouped.
	leaves, err := partitionInputKD(p.Right, p.Maps, mapping.Left, 16)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partitionInputKD(p.Right, p.Maps, mapping.Right, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(leaves) || len(parts) < 8 {
		t.Fatalf("%d grouped partitions, %d leaves", len(parts), len(leaves))
	}
	for pi, leaf := range leaves {
		var firsts []int64 // keys in first-appearance order
		byKey := map[int64][]int64{}
		for i, key := range leaf.jkeys {
			if byKey[key] == nil {
				firsts = append(firsts, key)
			}
			byKey[key] = append(byKey[key], leaf.ids[i])
		}
		var want []int64
		for _, key := range firsts {
			want = append(want, byKey[key]...)
		}
		if !slices.Equal(parts[pi].ids, want) {
			t.Fatalf("partition %d: rows %v, stable grouping of the leaf %v", pi, parts[pi].ids, want)
		}
	}
}

// TestNonFiniteInputRejected: a NaN or infinite value that a mapping function
// reads is refused by both partitioners, on either side, wherever in the
// relation it sits — a NaN on any tuple but the first used to slip through
// the bounds' < and > and reach the result stream. Values no function reads
// are not the engine's business.
func TestNonFiniteInputRejected(t *testing.T) {
	for _, method := range []Partitioning{PartitionGrid, PartitionKD} {
		for _, side := range []mapping.Side{mapping.Left, mapping.Right} {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, at := range []int{0, 57, 199} {
					rng := rand.New(rand.NewPCG(31, 7))
					p := columnsProblem(200, true, keyShapes[0].key, rng)
					rel := p.Left
					if side == mapping.Right {
						rel = p.Right
					}
					e := New(Options{Partitioning: method})
					rel.Tuples[at].Vals[1] = bad // attribute 1 is unused
					if _, err := e.Run(p, &smj.Collector{}); err != nil {
						t.Fatalf("%s %s: unused attribute %v refused: %v", method, side, bad, err)
					}
					rel.Tuples[at].Vals[2] = bad
					var sink smj.Collector
					_, err := e.Run(p, &sink)
					want := fmt.Sprintf("core: non-finite value in %s tuple %d", side, rel.Tuples[at].ID)
					if err == nil || err.Error() != want || len(sink.Results) != 0 {
						t.Fatalf("%s %s value %v at %d: err %v with %d results, want %q", method, side, bad, at, err, len(sink.Results), want)
					}
				}
			}
		}
	}
}

// TestOffArityTupleRejected: the columns hold exactly the schema's arity per
// row, so a hand-built tuple of any other length is an error, not a shifted
// block.
func TestOffArityTupleRejected(t *testing.T) {
	for _, method := range []Partitioning{PartitionGrid, PartitionKD} {
		for _, vals := range [][]float64{{1, 2}, {1, 2, 3, 4}} {
			p := columnsProblem(50, false, keyShapes[0].key, rand.New(rand.NewPCG(37, 1)))
			p.Left.Tuples[20].Vals = vals // the left side has no used attribute: the single-partition path
			_, err := New(Options{Partitioning: method}).Run(p, &smj.Collector{})
			if err == nil || !strings.Contains(err.Error(), "L tuple 1020 has") {
				t.Fatalf("%s: %d values on a 3-attribute schema: err %v", method, len(vals), err)
			}
		}
	}
}
