package core

import (
	"math"

	"progxe/internal/grid"
)

// bucketEntry is one populated cell in a coordinate bucket, carrying the
// cell's flat id and packed coordinate key inline so the comparability
// filter runs without chasing the cell pointer.
type bucketEntry struct {
	flat int
	key  uint64
	c    *cell
}

// cellIndex accelerates the three hot queries of tuple-level processing and
// progressive determination:
//
//   - flat-id → cell resolution (one flat table over the output grid, which
//     grid.MaxCells bounds),
//   - "populated cells comparable to X" (per-dimension coordinate buckets:
//     a cell is slice-comparable to X iff it shares a coordinate with X in
//     some dimension and is componentwise ≤ or ≥, so the union of the d
//     buckets through X covers exactly the candidate set of §III-B; each
//     bucket is sorted by flat id, and componentwise ≤ implies flat ≤, so
//     dominator candidates live in the bucket prefix below X's flat id and
//     victim candidates in the suffix above it),
//   - the covered bounding box minC..maxC, which clamps the orthant boxes
//     the space walks with Grid.Box over the flat table (the closed lower
//     orthant for blocker checks, the strict upper orthant for dynamic
//     marking).
//
// Every covered cell carries its Grid.Key; one Grid.Leq decides whether two
// cells are componentwise ≤.
//
// Buckets hold populated cells only: cells are never un-populated, and
// empty-buffer or marked cells are skipped by the caller.
type cellIndex struct {
	g     *grid.Grid
	d     int
	all   []*cell // every covered cell, ascending flat id (epoch-wrap stamp clearing)
	dense []*cell // flat id → cell; nil for uncovered cells
	minC  []int   // componentwise min coordinate over covered cells
	maxC  []int   // componentwise max coordinate over covered cells
	// buckets[i][v] lists populated cells whose i-th coordinate equals v,
	// ascending by flat id.
	buckets [][][]bucketEntry
	epoch   int32 // visit stamp: dedups cells appearing in several buckets
}

// init sizes the index for the given grid; cells register through add as
// the space creates them.
func (x *cellIndex) init(g *grid.Grid) {
	x.g = g
	x.d = g.Dims()
	x.dense = make([]*cell, g.NumCells())
	x.minC = make([]int, x.d)
	x.maxC = make([]int, x.d)
	for i := range x.minC {
		x.minC[i] = g.CellsPerDim(i)
		x.maxC[i] = -1
	}
	x.buckets = make([][][]bucketEntry, x.d)
	for i := range x.buckets {
		x.buckets[i] = make([][]bucketEntry, g.CellsPerDim(i))
	}
}

// add registers a newly created covered cell: its slot in the flat table,
// its packed coordinate key, and the covered bounding box.
func (x *cellIndex) add(c *cell) {
	x.dense[c.flat] = c
	c.key = x.g.Key(c.coords)
	for i, v := range c.coords {
		if v < x.minC[i] {
			x.minC[i] = v
		}
		if v > x.maxC[i] {
			x.maxC[i] = v
		}
	}
}

// addPopulated registers a newly populated cell in every dimension bucket,
// keeping buckets sorted by flat id.
func (x *cellIndex) addPopulated(c *cell) {
	e := bucketEntry{flat: c.flat, key: c.key, c: c}
	for i, v := range c.coords {
		b := x.buckets[i][v]
		pos := bucketSplit(b, c.flat)
		b = append(b, bucketEntry{})
		copy(b[pos+1:], b[pos:])
		b[pos] = e
		x.buckets[i][v] = b
	}
}

// bucketSplit returns the first index whose entry has flat ≥ the given id.
func bucketSplit(b []bucketEntry, flat int) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if b[mid].flat < flat {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// stamp opens a fresh visit epoch and pre-visits c (so bucket walks skip it).
// Epochs are int32 to keep the cell struct compact; on the (pathological)
// wrap every stamp is cleared so stale marks can never collide.
func (x *cellIndex) stamp(c *cell) int32 {
	if x.epoch == math.MaxInt32 {
		x.epoch = 0
		for _, q := range x.all {
			q.visited = 0
		}
	}
	x.epoch++
	c.visited = x.epoch
	return x.epoch
}
