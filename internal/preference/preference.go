// Package preference implements the preference model used by skyline
// (Pareto-optimal) evaluation, following §II-A of the paper.
//
// A preference is a set of equally important per-attribute orders. A tuple
// dominates another iff it is at least as good in every preferred attribute
// and strictly better in at least one. All comparisons operate on float64
// vectors in "output space": the caller is responsible for projecting tuples
// onto the preferred attributes (the mapping operator in §II-B does this for
// SkyMapJoin queries).
package preference

import (
	"fmt"
	"strings"
)

// Order is the direction of a single-attribute preference.
type Order int8

const (
	// Lowest prefers smaller values (PREFERRING LOWEST(x)).
	Lowest Order = iota
	// Highest prefers larger values (PREFERRING HIGHEST(x)).
	Highest
)

// String returns the SQL-dialect keyword for the order.
func (o Order) String() string {
	switch o {
	case Lowest:
		return "LOWEST"
	case Highest:
		return "HIGHEST"
	default:
		return fmt.Sprintf("Order(%d)", int8(o))
	}
}

// Attribute is one component of a Pareto preference: a named dimension and
// the direction in which it is preferred.
type Attribute struct {
	Name  string
	Order Order
}

// Pareto is a combined Pareto preference P = {P1, ..., Pd}: a set of equally
// important per-dimension preferences (Definition 1). The zero value is an
// empty preference over no dimensions.
type Pareto struct {
	attrs []Attribute
}

// NewPareto returns a Pareto preference over the given attributes, in order.
func NewPareto(attrs ...Attribute) *Pareto {
	p := &Pareto{attrs: make([]Attribute, len(attrs))}
	copy(p.attrs, attrs)
	return p
}

// AllLowest returns a Pareto preference that minimizes every one of the d
// dimensions, named dim0..dim(d-1). This is the configuration used by the
// paper's experiments (all mapping outputs are minimized).
func AllLowest(d int) *Pareto {
	attrs := make([]Attribute, d)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("dim%d", i), Order: Lowest}
	}
	return NewPareto(attrs...)
}

// Dims returns the number of preferred dimensions.
func (p *Pareto) Dims() int { return len(p.attrs) }

// Attributes returns a copy of the per-dimension preferences.
func (p *Pareto) Attributes() []Attribute {
	out := make([]Attribute, len(p.attrs))
	copy(out, p.attrs)
	return out
}

// Attr returns the i-th attribute preference.
func (p *Pareto) Attr(i int) Attribute { return p.attrs[i] }

// String renders the preference in the paper's PREFERRING syntax.
func (p *Pareto) String() string {
	parts := make([]string, len(p.attrs))
	for i, a := range p.attrs {
		parts[i] = fmt.Sprintf("%s(%s)", a.Order, a.Name)
	}
	return strings.Join(parts, " AND ")
}

// Canonical reports whether every dimension is minimized. Engines that only
// reason in minimized space (the grid machinery) require canonical
// preferences; smj.Canonicalized converts a problem by negating its HIGHEST
// mapping functions.
func (p *Pareto) Canonical() bool {
	for _, a := range p.attrs {
		if a.Order != Lowest {
			return false
		}
	}
	return true
}

// Dominates reports whether vector a dominates vector b under p
// (Definition 1): a is at least as good in every dimension and strictly
// better in at least one. Panics if the vectors are shorter than p.Dims().
func (p *Pareto) Dominates(a, b []float64) bool {
	better := false
	for i, attr := range p.attrs {
		av, bv := a[i], b[i]
		if attr.Order == Highest {
			av, bv = -av, -bv
		}
		switch {
		case av > bv:
			return false
		case av < bv:
			better = true
		}
	}
	return better
}

// Compare classifies the dominance relationship between a and b.
func (p *Pareto) Compare(a, b []float64) Relation {
	aBetter, bBetter := false, false
	for i, attr := range p.attrs {
		av, bv := a[i], b[i]
		if attr.Order == Highest {
			av, bv = -av, -bv
		}
		switch {
		case av < bv:
			aBetter = true
		case av > bv:
			bBetter = true
		}
		if aBetter && bBetter {
			return Incomparable
		}
	}
	switch {
	case aBetter:
		return LeftDominates
	case bBetter:
		return RightDominates
	default:
		return Equal
	}
}

// Relation is the outcome of a pairwise dominance comparison.
type Relation int8

// Dominance comparison outcomes.
const (
	Incomparable Relation = iota
	LeftDominates
	RightDominates
	Equal
)

// String returns a human-readable name for the relation.
func (r Relation) String() string {
	switch r {
	case Incomparable:
		return "incomparable"
	case LeftDominates:
		return "left-dominates"
	case RightDominates:
		return "right-dominates"
	case Equal:
		return "equal"
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// DominatesMin reports whether a dominates b when every dimension is
// minimized. It is the hot-path variant used by engines operating in
// canonical (minimized) space.
func DominatesMin(a, b []float64) bool {
	better := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			better = true
		}
	}
	return better
}

// DominatesOrEqualMin reports whether a is at least as good as b in every
// minimized dimension (a ≤ b componentwise).
func DominatesOrEqualMin(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}
