// Package core implements the ProgXe progressive query evaluation framework
// of the paper (§III–§V): output-space look-ahead, ordered tuple-level
// processing, and progressive result determination, plus the ProgXe+
// push-through variant and the non-ordered ablations used in §VI-B.
package core

import (
	"fmt"
	"math"
	"sort"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// inputPartition is one grid partition of an input source (IRa / ITb in the
// paper's notation): the member tuples, their tight bounding box over the
// full attribute vector, and — on the right side, the probed side of every
// region join — the join-key index that serves as the partition's exact
// join signature (§III-A) and as its probe table (§III-B).
type inputPartition struct {
	id     int
	tuples []relation.Tuple
	rect   grid.Rect
	keys   keyIndex // right side only
}

// autoCells picks the per-dimension input grid resolution when the caller
// does not fix one. The framework's region machinery costs O(n²) in the
// number of regions n ≈ (g^d)², so g is chosen to keep the total partition
// count per source bounded (≈ 1 partition per 48 tuples, at most 64 per
// source), honouring the paper's premise that n << N (§IV time complexity).
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
// attributes) and, on the right side, its key index. Members are counted per
// cell first and every partition's tuples carved out of one backing array,
// so a cached plan carries no append slack.
func partitionInput(rel *relation.Relation, maps *mapping.Set, side mapping.Side, cellsPerDim int) ([]*inputPartition, error) {
	used := maps.UsedAttrs(side)
	if len(rel.Tuples) == 0 {
		return nil, nil
	}
	if cellsPerDim <= 0 {
		cellsPerDim = autoCells(len(rel.Tuples), max(1, len(used)))
	}
	if len(used) == 0 {
		// The side contributes no mapped attributes: a single partition.
		return singlePartition(rel, side), nil
	}

	// Project the used attributes and bound them. One backing block for all
	// projections keeps this O(1) allocations instead of O(N).
	pts := make([][]float64, len(rel.Tuples))
	block := make([]float64, len(rel.Tuples)*len(used))
	for i, t := range rel.Tuples {
		v := block[i*len(used) : (i+1)*len(used) : (i+1)*len(used)]
		for j, a := range used {
			v[j] = t.Vals[a]
		}
		pts[i] = v
	}
	bounds, err := grid.BoundsOf(pts)
	if err != nil {
		return nil, fmt.Errorf("core: bounding %s input: %w", side, err)
	}
	g, err := grid.Uniform(bounds, cellsPerDim)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning %s input: %w", side, err)
	}

	// Populated cells are numbered in first-appearance order while their
	// members are counted; the partitions are put in cell order afterwards.
	seen := make(map[int]int32)
	var flats, counts []int
	memberOf := make([]int32, len(rel.Tuples))
	for i := range rel.Tuples {
		flat := g.CellOf(pts[i])
		pi, ok := seen[flat]
		if !ok {
			pi = int32(len(flats))
			seen[flat] = pi
			flats = append(flats, flat)
			counts = append(counts, 0)
		}
		counts[pi]++
		memberOf[i] = pi
	}
	out := carvePartitions(rel.Schema.Arity(), counts)
	for i, t := range rel.Tuples {
		out[memberOf[i]].add(t)
	}
	for i, p := range out {
		p.id = flats[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	// Re-number sequentially for compact indexing.
	for i, p := range out {
		p.id = i
	}
	return finishPartitions(out, side), nil
}

// carvePartitions returns len(counts) empty partitions, partition i with
// room for exactly counts[i] tuples out of one shared backing array, so
// adding its members never regrows a slice.
func carvePartitions(arity int, counts []int) []*inputPartition {
	total := 0
	for _, n := range counts {
		total += n
	}
	backing := make([]relation.Tuple, total)
	out := make([]*inputPartition, len(counts))
	for i, n := range counts {
		out[i] = newPartition(i, arity)
		out[i].tuples = backing[:0:n]
		backing = backing[n:]
	}
	return out
}

// singlePartition puts the whole relation into one partition.
func singlePartition(rel *relation.Relation, side mapping.Side) []*inputPartition {
	out := carvePartitions(rel.Schema.Arity(), []int{len(rel.Tuples)})
	for _, t := range rel.Tuples {
		out[0].add(t)
	}
	return finishPartitions(out, side)
}

// finishPartitions completes one side's partitioning: the right side — the
// one every region join probes — gets its key indexes here, before the
// partitions are shared with anything.
func finishPartitions(parts []*inputPartition, side mapping.Side) []*inputPartition {
	if side == mapping.Right {
		indexKeys(parts)
	}
	return parts
}

// newPartition returns an empty partition whose bounding box will track the
// full arity-dimensional attribute vectors of added tuples.
func newPartition(id, arity int) *inputPartition {
	return &inputPartition{
		id: id,
		rect: grid.Rect{
			Lower: make([]float64, arity),
			Upper: make([]float64, arity),
		},
	}
}

// add appends a tuple, growing the bounding box.
func (p *inputPartition) add(t relation.Tuple) {
	if len(p.tuples) == 0 {
		copy(p.rect.Lower, t.Vals)
		copy(p.rect.Upper, t.Vals)
	} else {
		for i, v := range t.Vals {
			if v < p.rect.Lower[i] {
				p.rect.Lower[i] = v
			}
			if v > p.rect.Upper[i] {
				p.rect.Upper[i] = v
			}
		}
	}
	p.tuples = append(p.tuples, t)
}

// len returns the partition cardinality (n_a^R in the cost model).
func (p *inputPartition) len() int { return len(p.tuples) }

// checkProblem validates and canonicalizes the problem for the ProgXe
// engines and reports the output dimensionality.
func checkProblem(p *smj.Problem) (*smj.Problem, int, error) {
	cp, err := p.Canonicalized()
	if err != nil {
		return nil, 0, err
	}
	return cp, cp.Maps.Dims(), nil
}
