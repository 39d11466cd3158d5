// Package relation provides the tuple and relation substrate the rest of the
// system is built on: typed schemas, in-memory relations, selection
// predicates, and CSV import/export.
//
// Tuples carry float64 attribute values plus a single int64 join key. The
// paper's queries (for example Q1 in §I) join two sources on an equality
// predicate, filter each source with selections, and feed a subset of the
// numeric attributes into mapping functions; this package models exactly
// that shape without generalizing to a full relational engine.
package relation

import (
	"fmt"
	"slices"
	"strings"
)

// Schema describes the layout of the tuples in a relation: the ordered
// numeric attribute names plus the name of the join-key column.
type Schema struct {
	Name     string   // relation name, e.g. "Suppliers"
	Attrs    []string // numeric attribute names, in column order
	JoinAttr string   // join key column name, e.g. "country"
}

// NewSchema returns a schema for the given relation name, numeric attribute
// names, and join attribute name.
func NewSchema(name string, attrs []string, joinAttr string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema needs a name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %q needs at least one attribute", name)
	}
	seen := make(map[string]bool, len(attrs)+1)
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %q has an empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation: schema %q has duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	if joinAttr == "" {
		return nil, fmt.Errorf("relation: schema %q needs a join attribute", name)
	}
	if seen[joinAttr] {
		return nil, fmt.Errorf("relation: schema %q join attribute %q collides with a numeric attribute", name, joinAttr)
	}
	return &Schema{Name: name, Attrs: slices.Clone(attrs), JoinAttr: joinAttr}, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// examples with literal schemas.
func MustSchema(name string, attrs []string, joinAttr string) *Schema {
	s, err := NewSchema(name, attrs, joinAttr)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of numeric attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Index returns the column index of the named numeric attribute, or -1.
func (s *Schema) Index(attr string) int {
	return slices.Index(s.Attrs, attr)
}

// String renders the schema as Name(attr1, attr2, ..., joinAttr*).
func (s *Schema) String() string {
	return fmt.Sprintf("%s(%s, %s*)", s.Name, strings.Join(s.Attrs, ", "), s.JoinAttr)
}

// Tuple is a single row: an identifier, the numeric attribute values (in
// schema column order), and the join key.
type Tuple struct {
	ID      int64
	Vals    []float64
	JoinKey int64
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{ID: t.ID, Vals: slices.Clone(t.Vals), JoinKey: t.JoinKey}
}

// Relation is an in-memory table: a schema plus its tuples.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// New returns an empty relation with the given schema.
func New(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple, validating its arity against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t.Vals) != r.Schema.Arity() {
		return fmt.Errorf("relation %s: tuple %d has %d values, schema has %d",
			r.Schema.Name, t.ID, len(t.Vals), r.Schema.Arity())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append that panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Select returns a new relation containing the tuples satisfying pred. The
// returned relation shares tuple storage with the receiver.
func (r *Relation) Select(pred Predicate) *Relation {
	out := New(r.Schema)
	for _, t := range r.Tuples {
		if pred.Eval(r.Schema, t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Predicate is a boolean condition over a single tuple.
type Predicate interface {
	Eval(s *Schema, t Tuple) bool
	String() string
}

// CmpOp is a comparison operator for attribute predicates.
type CmpOp int8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int8(op))
	}
}

func (op CmpOp) eval(a, b float64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	default:
		return false
	}
}

// AttrCmp compares a named numeric attribute against a constant, e.g.
// "manCap >= 100000" from query Q1.
type AttrCmp struct {
	Attr  string
	Op    CmpOp
	Const float64
}

// Eval implements Predicate.
func (p AttrCmp) Eval(s *Schema, t Tuple) bool {
	i := s.Index(p.Attr)
	if i < 0 {
		return false
	}
	return p.Op.eval(t.Vals[i], p.Const)
}

func (p AttrCmp) String() string {
	return fmt.Sprintf("%s %s %g", p.Attr, p.Op, p.Const)
}

// JoinKeyIn keeps tuples whose join key is in the given set (e.g. 'P1' IN
// R.suppliedParts encoded as key membership).
type JoinKeyIn struct {
	Keys map[int64]bool
}

// Eval implements Predicate.
func (p JoinKeyIn) Eval(_ *Schema, t Tuple) bool { return p.Keys[t.JoinKey] }

func (p JoinKeyIn) String() string { return fmt.Sprintf("joinKey IN set(%d)", len(p.Keys)) }

// And is the conjunction of predicates; an empty And is true.
type And []Predicate

// Eval implements Predicate.
func (p And) Eval(s *Schema, t Tuple) bool {
	for _, q := range p {
		if !q.Eval(s, t) {
			return false
		}
	}
	return true
}

func (p And) String() string {
	if len(p) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p))
	for i, q := range p {
		parts[i] = q.String()
	}
	return strings.Join(parts, " AND ")
}

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(*Schema, Tuple) bool { return true }

func (True) String() string { return "TRUE" }
