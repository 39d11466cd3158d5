package mapping

import (
	"fmt"
	"sort"
	"strings"

	"progxe/internal/grid"
)

// Func is one named mapping function f_j: an output dimension name and the
// expression producing it.
type Func struct {
	Name string
	Expr Expr
}

// Set is the full mapping-function set F = {f_1, ..., f_k} of the Map
// operator µ[F,X]. It transforms each join result into a point of the
// k-dimensional output space X.
type Set struct {
	funcs []Func
	dirs  map[AttrRef]Direction
	kerns []kernel // funcs[j] compiled for Map
}

// term is one summand of a compiled function: coef · src[side][col], where
// src is the (left, right) pair of attribute vectors.
type term struct {
	side uint8 // 0 left, 1 right; Map reads side&1, which needs no bounds check
	col  int
	coef float64
}

// kernel is one mapping function as Map evaluates it. A linear function —
// an Add whose terms are attributes or constant multiples of one, possibly
// under one outer Scale — runs as one multiply-add loop over terms, then
// the outer factor if scaled. Every other shape keeps its tree in expr.
//
// The loop reproduces Eval bit for bit: the accumulator starts at 0.0 as
// Add.Eval's does (so a lone -0 term sums to +0 in both), an unscaled
// attribute is the exact product 1·x, the outer factor stays a separate
// final multiply (-1·(0 + 0) is -0, 0 + -1·0 is +0), and every product is
// rounded by float64() so that no target fuses it into the add.
type kernel struct {
	terms  []term
	scaled bool // a factor of 0 is a factor, so this is not outer != 0
	outer  float64
	expr   Expr // non-nil: not linear, evaluate the tree
}

// compile lowers one mapping function to its kernel.
func compile(e Expr) kernel {
	var k kernel
	body := e
	if s, ok := e.(Scale); ok {
		body, k.scaled, k.outer = s.Of, true, s.Factor
	}
	sum, ok := body.(Add)
	if !ok {
		return kernel{expr: e}
	}
	k.terms = make([]term, 0, len(sum))
	for _, t := range sum {
		coef := 1.0
		if s, ok := t.(Scale); ok {
			coef, t = s.Factor, s.Of
		}
		a, ok := t.(Attr)
		if !ok {
			return kernel{expr: e}
		}
		side := uint8(0)
		if a.Ref.Side != Left {
			side = 1
		}
		k.terms = append(k.terms, term{side: side, col: a.Ref.Index, coef: coef})
	}
	return k
}

// NewSet builds a mapping set from named functions, pre-computing the
// monotonicity analysis and compiling each function for Map.
func NewSet(funcs ...Func) (*Set, error) {
	if len(funcs) == 0 {
		return nil, fmt.Errorf("mapping: need at least one mapping function")
	}
	seen := make(map[string]bool, len(funcs))
	dirs := make(map[AttrRef]Direction)
	for _, f := range funcs {
		if f.Name == "" {
			return nil, fmt.Errorf("mapping: function needs a name")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("mapping: duplicate function name %q", f.Name)
		}
		if f.Expr == nil {
			return nil, fmt.Errorf("mapping: function %q has no expression", f.Name)
		}
		seen[f.Name] = true
		f.Expr.directions(dirs)
	}
	s := &Set{funcs: make([]Func, len(funcs)), dirs: dirs, kerns: make([]kernel, len(funcs))}
	copy(s.funcs, funcs)
	for j, f := range funcs {
		s.kerns[j] = compile(f.Expr)
	}
	return s, nil
}

// MustSet is NewSet that panics on error; for literals in tests and examples.
func MustSet(funcs ...Func) *Set {
	s, err := NewSet(funcs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns the number of output dimensions k.
func (s *Set) Dims() int { return len(s.funcs) }

// Names returns the output dimension names in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.funcs))
	for i, f := range s.funcs {
		out[i] = f.Name
	}
	return out
}

// Func returns the j-th mapping function.
func (s *Set) Func(j int) Func { return s.funcs[j] }

// Map evaluates all mapping functions over one join result, writing the
// output point into dst (which must have length Dims()) and returning it.
// Each coordinate equals its function's Expr.Eval bit for bit.
func (s *Set) Map(left, right []float64, dst []float64) []float64 {
	src := [2][]float64{left, right}
	for j := range s.kerns {
		k := &s.kerns[j]
		if k.expr != nil {
			dst[j] = k.expr.Eval(left, right)
			continue
		}
		acc := 0.0
		for _, t := range k.terms {
			acc += float64(t.coef * src[t.side&1][t.col])
		}
		if k.scaled {
			acc = k.outer * acc
		}
		dst[j] = acc
	}
	return dst
}

// MapRegion computes the output region R_{a,b} that all join results of an
// input-partition pair must map into, by interval propagation over the
// partition bounding boxes (Example 1: partitions [(0,4)(1,5)] and
// [(3,1)(4,2)] under Q1 yield the region [b(3,5), B(6,7)]).
func (s *Set) MapRegion(left, right grid.Rect) grid.Rect {
	lo := make([]float64, len(s.funcs))
	hi := make([]float64, len(s.funcs))
	for j, f := range s.funcs {
		lo[j], hi[j] = f.Expr.Interval(left.Lower, left.Upper, right.Lower, right.Upper)
	}
	return grid.Rect{Lower: lo, Upper: hi}
}

// Bounded reports whether every subexpression of every function has a
// finite interval over the boxes left and right. Then every point inside
// them maps to finite outputs inside MapRegion's rect: rounding is
// monotone, so each node's value lies in its interval. A false answer
// proves nothing about the points, nor does MapRegion's rect: a NaN that a
// MIN or MAX swallows can misplace it.
func (s *Set) Bounded(left, right grid.Rect) bool {
	var bounded func(e Expr) bool
	bounded = func(e Expr) bool {
		lo, hi := e.Interval(left.Lower, left.Upper, right.Lower, right.Upper)
		if lo-lo != 0 || hi-hi != 0 { // NaN, ±Inf
			return false
		}
		var kids []Expr
		switch e := e.(type) {
		case Add:
			kids = e
		case Min:
			kids = e
		case Max:
			kids = e
		case Scale:
			kids = []Expr{e.Of}
		case Sub:
			kids = []Expr{e.L, e.R}
		}
		for _, k := range kids {
			if !bounded(k) {
				return false
			}
		}
		return true
	}
	for _, f := range s.funcs {
		if !bounded(f.Expr) {
			return false
		}
	}
	return true
}

// UsedAttrs returns the indices of the side's attributes referenced by any
// mapping function, ascending.
func (s *Set) UsedAttrs(side Side) []int {
	var out []int
	for ref, d := range s.dirs {
		if ref.Side == side && d != Unused {
			out = append(out, ref.Index)
		}
	}
	sort.Ints(out)
	return out
}

// PushThroughPlan describes how source-level skyline pruning may be applied
// to one side (ProgXe+ / JF-SL+ / SSMJ pre-pruning). For each used attribute
// it records whether smaller (increasing direction) or larger (decreasing)
// values are preferable in output space.
type PushThroughPlan struct {
	Attrs   []int  // attribute indices on this side, ascending
	Minimal []bool // Minimal[i]: smaller values of Attrs[i] are better
	Strict  []bool // Strict[i]: output strictly improves when Attrs[i] improves
}

// PushThrough returns a pruning plan for the side, or an error if some used
// attribute has mixed monotonicity (in which case source-level pruning is
// unsound and callers must skip push-through for that side).
//
// Soundness: with all output dimensions minimized, if tuple r1 is ≤ r2 on
// every used attribute (oriented by Minimal) with strict improvement on an
// attribute whose usage is strict, then F(r1, t) dominates F(r2, t) for every
// join partner t — so r2 can never contribute an undominated output as long
// as r1 has the same join key.
func (s *Set) PushThrough(side Side) (PushThroughPlan, error) {
	var plan PushThroughPlan
	for _, idx := range s.UsedAttrs(side) {
		d := s.dirs[AttrRef{Side: side, Index: idx}]
		switch d {
		case NonDec, StrictInc:
			plan.Attrs = append(plan.Attrs, idx)
			plan.Minimal = append(plan.Minimal, true)
			plan.Strict = append(plan.Strict, d == StrictInc)
		case NonInc, StrictDec:
			plan.Attrs = append(plan.Attrs, idx)
			plan.Minimal = append(plan.Minimal, false)
			plan.Strict = append(plan.Strict, d == StrictDec)
		default:
			return PushThroughPlan{}, fmt.Errorf("mapping: attribute %s[%d] has %s monotonicity; push-through unsound", side, idx, d)
		}
	}
	return plan, nil
}

// Dominates reports whether tuple a dominates tuple b under the plan:
// at least as good on every covered attribute and strictly better on at
// least one strictly-used attribute.
func (p PushThroughPlan) Dominates(a, b []float64) bool {
	strictly := false
	for i, idx := range p.Attrs {
		av, bv := a[idx], b[idx]
		if !p.Minimal[i] {
			av, bv = -av, -bv
		}
		if av > bv {
			return false
		}
		if av < bv && p.Strict[i] {
			strictly = true
		}
	}
	return strictly
}

// String renders the mapping set as "name := expr" lines.
func (s *Set) String() string {
	parts := make([]string, len(s.funcs))
	for i, f := range s.funcs {
		parts[i] = fmt.Sprintf("%s := %s", f.Name, f.Expr)
	}
	return strings.Join(parts, "; ")
}
