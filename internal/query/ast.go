package query

import (
	"fmt"
	"strings"

	"progxe/internal/preference"
	"progxe/internal/relation"
)

// Query is a parsed SkyMapJoin query, not yet bound to schemas.
type Query struct {
	Select     []SelectItem
	From       [2]TableRef
	Join       JoinCond
	Filters    []Filter
	Preferring []PrefItem
}

// SelectItem is one projection: either an identifier pass-through
// (alias.attr or alias.id) or a named mapping expression.
type SelectItem struct {
	// Alias/Attr are set for plain column references.
	Alias, Attr string
	// Expr/Name are set for mapping expressions ("(expr) AS name").
	Expr Node
	Name string
}

// IsExpr reports whether the item is a mapping expression.
func (s SelectItem) IsExpr() bool { return s.Expr != nil }

// TableRef names a source relation and its alias.
type TableRef struct {
	Table string
	Alias string
}

// JoinCond is the equi-join condition between the two sources.
type JoinCond struct {
	LeftAlias  string
	LeftAttr   string
	RightAlias string
	RightAttr  string
}

// Filter is a per-source selection: alias.attr CMP constant.
type Filter struct {
	Alias string
	Attr  string
	Op    relation.CmpOp
	Const float64
}

// PrefItem is one PREFERRING entry: LOWEST(name) or HIGHEST(name).
type PrefItem struct {
	Order preference.Order
	Name  string
}

// Node is an arithmetic expression AST node over source attributes.
type Node interface {
	render(sb *strings.Builder)
}

// NumNode is a numeric literal.
type NumNode float64

// ColNode is an alias.attr reference.
type ColNode struct {
	Alias, Attr string
}

// BinNode is a binary arithmetic operation: +, - or *.
type BinNode struct {
	Op   byte // '+', '-', '*'
	L, R Node
}

// CallNode is MIN(...)/MAX(...) over one or more arguments.
type CallNode struct {
	Fn   string // "min" or "max"
	Args []Node
}

func (n NumNode) render(sb *strings.Builder) { fmt.Fprintf(sb, "%g", float64(n)) }

func (n ColNode) render(sb *strings.Builder) {
	sb.WriteString(n.Alias)
	sb.WriteByte('.')
	sb.WriteString(n.Attr)
}

func (n BinNode) render(sb *strings.Builder) {
	sb.WriteByte('(')
	n.L.render(sb)
	sb.WriteByte(' ')
	sb.WriteByte(n.Op)
	sb.WriteByte(' ')
	n.R.render(sb)
	sb.WriteByte(')')
}

func (n CallNode) render(sb *strings.Builder) {
	sb.WriteString(strings.ToUpper(n.Fn))
	sb.WriteByte('(')
	for i, a := range n.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		a.render(sb)
	}
	sb.WriteByte(')')
}

// String reproduces the query in canonical dialect form.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		if s.IsExpr() {
			s.Expr.render(&sb)
			sb.WriteString(" AS ")
			sb.WriteString(s.Name)
		} else {
			sb.WriteString(s.Alias)
			sb.WriteByte('.')
			sb.WriteString(s.Attr)
		}
	}
	fmt.Fprintf(&sb, " FROM %s %s, %s %s WHERE %s.%s = %s.%s",
		q.From[0].Table, q.From[0].Alias, q.From[1].Table, q.From[1].Alias,
		q.Join.LeftAlias, q.Join.LeftAttr, q.Join.RightAlias, q.Join.RightAttr)
	for _, f := range q.Filters {
		fmt.Fprintf(&sb, " AND %s.%s %s %g", f.Alias, f.Attr, f.Op, f.Const)
	}
	sb.WriteString(" PREFERRING ")
	for i, p := range q.Preferring {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "%s(%s)", p.Order, p.Name)
	}
	return sb.String()
}
