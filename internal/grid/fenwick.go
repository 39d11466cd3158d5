package grid

import "fmt"

// Fenwick is a d-dimensional binary indexed tree over an integer coordinate
// box [0, dims[0]) × … × [0, dims[d-1]): point add plus closed-lower-orthant
// count, both in O(∏ log dims[i]). BoxIndex uses it for cumulative
// region-corner counts, which give the EL-Graph in-degrees without the
// all-pairs edge scan.
type Fenwick struct {
	dims   []int
	stride []int
	tree   []int32
}

// NewFenwick returns an empty tree over the given per-dimension sizes, at
// most MaxCells points in all.
func NewFenwick(dims []int) (*Fenwick, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("grid: fenwick needs at least one dimension")
	}
	total, err := Size(dims)
	if err != nil {
		return nil, err
	}
	f := &Fenwick{dims: append([]int(nil), dims...), stride: make([]int, len(dims)), tree: make([]int32, total)}
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		f.stride[i] = s
		s *= dims[i]
	}
	return f, nil
}

// Add applies delta at the given point. Coordinates must lie inside the box.
func (f *Fenwick) Add(coords []int, delta int32) {
	f.add(0, 0, coords, delta)
}

func (f *Fenwick) add(dim, base int, coords []int, delta int32) {
	if dim == len(f.dims)-1 {
		// Innermost dimension (stride 1) runs inline: it contributes the
		// bulk of the touched nodes, so flattening it halves the recursion.
		for i := coords[dim] + 1; i <= f.dims[dim]; i += i & -i {
			f.tree[base+i-1] += delta
		}
		return
	}
	for i := coords[dim] + 1; i <= f.dims[dim]; i += i & -i {
		f.add(dim+1, base+(i-1)*f.stride[dim], coords, delta)
	}
}

// Count returns the sum of deltas over the closed lower orthant
// {q : q ≤ coords componentwise}. A negative coordinate yields 0.
func (f *Fenwick) Count(coords []int) int {
	return int(f.count(0, 0, coords))
}

func (f *Fenwick) count(dim, base int, coords []int) int32 {
	var s int32
	hi := coords[dim]
	if hi >= f.dims[dim] {
		hi = f.dims[dim] - 1
	}
	if dim == len(f.dims)-1 {
		for i := hi + 1; i > 0; i -= i & -i {
			s += f.tree[base+i-1]
		}
		return s
	}
	for i := hi + 1; i > 0; i -= i & -i {
		s += f.count(dim+1, base+(i-1)*f.stride[dim], coords)
	}
	return s
}
