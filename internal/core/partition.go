// Package core implements the ProgXe progressive query evaluation framework
// of the paper (§III–§V): output-space look-ahead, ordered tuple-level
// processing, and progressive result determination, plus the ProgXe+
// push-through variant and the non-ordered ablations used in §VI-B.
package core

import (
	"fmt"
	"math"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// inputPartition is one grid partition of an input source (IRa / ITb in the
// paper's notation), stored as columns: row i is (ids[i], vals[i*arity :
// (i+1)*arity]), the values at full schema arity so the mapping functions
// and interval propagation keep their schema indexing. Every column is carved
// out of one pointer-free array per side, so the tuple-level loop reads one
// sequential block per join row and the garbage collector scans nothing.
//
// A left partition also carries its rows' join keys (16 + 8·arity bytes per
// tuple). A right partition — the probed side of every region join — stores
// its rows in join-key-group order instead (groups in first-appearance order,
// build order within a group) and keeps each key once, in the keyIndex slot
// whose lo:hi is the group's row range (8 + 8·arity bytes per tuple): a probe
// hit is a contiguous run of rows, and walking the runs in left-row order
// enumerates join.Hash's sequence. rect is the tight bounding box over the
// full attribute vector; the key index doubles as the partition's exact join
// signature (§III-A).
type inputPartition struct {
	id    int
	arity int
	ids   []int64
	jkeys []int64   // left side only
	vals  []float64 // len() rows of arity values
	rect  grid.Rect
	keys  keyIndex // right side only
}

// len returns the partition cardinality (n_a^R in the cost model).
func (p *inputPartition) len() int { return len(p.ids) }

// row returns the attribute vector of row i.
func (p *inputPartition) row(i int) []float64 {
	return p.vals[i*p.arity : (i+1)*p.arity : (i+1)*p.arity]
}

// newPartitions returns len(counts) partitions, partition i with exactly
// counts[i] rows for set to fill, so a cached plan carries no append slack.
func newPartitions(arity int, counts []int) []*inputPartition {
	total := 0
	for _, n := range counts {
		total += n
	}
	ids, jkeys := make([]int64, total), make([]int64, total)
	vals := make([]float64, total*arity)
	corners := make([]float64, 2*arity*len(counts))
	backing := make([]inputPartition, len(counts))
	out := make([]*inputPartition, len(counts))
	for i, n := range counts {
		p := &backing[i]
		p.id, p.arity = i, arity
		p.ids, ids = ids[:n:n], ids[n:]
		p.jkeys, jkeys = jkeys[:n:n], jkeys[n:]
		p.vals, vals = vals[:n*arity:n*arity], vals[n*arity:]
		p.rect.Lower, corners = corners[:arity:arity], corners[arity:]
		p.rect.Upper, corners = corners[:arity:arity], corners[arity:]
		for j := range p.rect.Lower {
			p.rect.Lower[j], p.rect.Upper[j] = math.Inf(1), math.Inf(-1)
		}
		out[i] = p
	}
	return out
}

// set fills row i with one tuple of the relation — the single copy of its
// values on the left side — growing the bounding box.
func (p *inputPartition) set(i int, t *relation.Tuple) {
	p.ids[i], p.jkeys[i] = t.ID, t.JoinKey
	row, lo, hi := p.row(i), p.rect.Lower, p.rect.Upper
	for j, v := range t.Vals[:len(row)] {
		row[j] = v
		if v < lo[j] {
			lo[j] = v
		}
		if v > hi[j] {
			hi[j] = v
		}
	}
}

// finishPartitions completes one side's partitioning: the right side — the
// one every region join probes — is regrouped by join key and indexed here,
// before the partitions are shared with anything.
func finishPartitions(parts []*inputPartition, side mapping.Side) []*inputPartition {
	if side == mapping.Right {
		groupByKey(parts)
	}
	return parts
}

// boundUsed is the partitioners' first pass: it refuses what the columns
// and the grid cannot hold — a tuple off the schema's arity, a NaN or
// infinite value the mapping functions read (dominance over either is
// meaningless, and a NaN slips through every < and > after it) — and bounds
// the used attributes.
func boundUsed(rel *relation.Relation, used []int, side mapping.Side) (lo, hi []float64, err error) {
	arity := rel.Schema.Arity()
	lo, hi = make([]float64, len(used)), make([]float64, len(used))
	for j := range used {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		if len(t.Vals) != arity {
			return nil, nil, fmt.Errorf("core: %s tuple %d has %d values, schema has %d", side, t.ID, len(t.Vals), arity)
		}
		for j, a := range used {
			v := t.Vals[a]
			if v-v != 0 { // NaN, ±Inf
				return nil, nil, fmt.Errorf("core: non-finite value in %s tuple %d", side, t.ID)
			}
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi, nil
}

// autoCells picks the per-dimension input grid resolution when the caller
// does not fix one: g^d ≈ 1 partition per 48 tuples, at most 36 per source
// and g ≤ 8, keeping the paper's premise that n ≪ N (§IV). The cap is
// measured, not a complexity bound: on a 20K-row anti-correlated d = 4
// input the default (g = 2, 254 regions) beat every finer setting — input
// grids g = 3 / 4 / 6 (4.4K / 26K / 196K regions) cost 1.3× / 3.7× / 34×
// the total time without releasing the bulk of the results any sooner,
// and kd splits did no better.
func autoCells(n, usedDims int) int {
	target := float64(n) / 48
	if target < 1 {
		target = 1
	}
	if target > 36 {
		target = 36
	}
	g := int(math.Floor(math.Pow(target, 1/float64(usedDims))))
	if g < 1 {
		g = 1
	}
	if g > 8 {
		g = 8
	}
	return g
}

// partitionInput splits a relation into grid partitions over the attributes
// used by the mapping functions on the given side, with cellsPerDim cells in
// each used dimension (0 selects autoCells). Partitions are returned in
// ascending grid-cell order; each carries a tight bounding box (over all
// attributes) and, on the right side, its key index. Three sequential passes
// over the relation — bound, count members per cell, scatter into exactly
// sized columns — with no per-tuple allocation.
func partitionInput(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cellsPerDim int) ([]*inputPartition, error) {
	if len(rel.Tuples) == 0 {
		return nil, nil
	}
	used := maps.UsedAttrs(side)
	lo, hi, err := boundUsed(rel, used, side)
	if err != nil {
		return nil, err
	}
	if len(used) == 0 {
		// The side contributes no mapped attributes: a single partition.
		return singlePartition(rel, side), nil
	}
	if cellsPerDim <= 0 {
		cellsPerDim = autoCells(len(rel.Tuples), len(used))
	}
	bounds, err := grid.NewBounds(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: bounding %s input: %w", side, err)
	}
	g, err := grid.Uniform(bounds, cellsPerDim)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning %s input: %w", side, err)
	}

	// Count members through a flat table over the grid, then walk it in
	// cell order, turning each populated cell's count into its partition id:
	// partition ids ascend with the grid cell.
	perCell := make([]int32, g.NumCells())
	cellOf := make([]int32, len(rel.Tuples))
	pt := make([]float64, len(used))
	for i := range rel.Tuples {
		vals := rel.Tuples[i].Vals
		for j, a := range used {
			pt[j] = vals[a]
		}
		flat := g.CellOf(pt)
		cellOf[i] = int32(flat)
		perCell[flat]++
	}
	var sizes []int
	for flat, n := range perCell {
		if n > 0 {
			perCell[flat] = int32(len(sizes))
			sizes = append(sizes, int(n))
		}
	}
	out := newPartitions(rel.Schema.Arity(), sizes)
	next := make([]int32, len(out)) // unfilled row of each partition
	for i := range rel.Tuples {
		k := perCell[cellOf[i]]
		out[k].set(int(next[k]), &rel.Tuples[i])
		next[k]++
	}
	return finishPartitions(out, side), nil
}

// singlePartition puts the whole relation into one partition.
func singlePartition(rel *relation.Relation, side mapping.Side) []*inputPartition {
	out := newPartitions(rel.Schema.Arity(), []int{len(rel.Tuples)})
	for i := range rel.Tuples {
		out[0].set(i, &rel.Tuples[i])
	}
	return finishPartitions(out, side)
}

// checkProblem validates and canonicalizes the problem for the ProgXe
// engines and reports the output dimensionality.
func checkProblem(p *smj.Problem) (*smj.Problem, int, error) {
	cp, err := p.Canonicalized()
	if err != nil {
		return nil, 0, err
	}
	return cp, cp.Maps.Dims(), nil
}
