// Package feed defines the change stream of live queries: a Change is one
// base-relation mutation (insert or delete) with its NDJSON/CSV line format,
// and TailSource delivers the Changes appended to a file in order (so the
// engine work is not blocked on a database integration). The serve layer
// applies each change to its catalog — stamping it with the catalog's
// monotonic sequence — and fans it out to live subscriptions.
package feed

import (
	"encoding/json"
	"fmt"
)

// Op is the kind of a change.
type Op int8

// Change operations.
const (
	// OpInsert adds a new tuple to a relation.
	OpInsert Op = iota
	// OpDelete removes an existing tuple by ID.
	OpDelete
)

// String returns the wire spelling of the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", int8(o))
	}
}

// ParseOp parses the wire spelling of an operation.
func ParseOp(s string) (Op, error) {
	switch s {
	case "insert":
		return OpInsert, nil
	case "delete":
		return OpDelete, nil
	default:
		return 0, fmt.Errorf("feed: unknown op %q", s)
	}
}

// Change is one base-relation mutation. Seq is assigned by the applier (the
// serve catalog's change counter); connectors leave it zero. Vals and
// JoinKey are meaningful for inserts only.
type Change struct {
	Seq      uint64
	Relation string
	Op       Op
	ID       int64
	Vals     []float64
	JoinKey  int64
}

// changeJSON is the NDJSON wire shape of a Change.
type changeJSON struct {
	Seq      uint64    `json:"seq,omitempty"`
	Relation string    `json:"relation,omitempty"`
	Op       string    `json:"op"`
	ID       int64     `json:"id"`
	Vals     []float64 `json:"vals,omitempty"`
	JoinKey  int64     `json:"joinKey,omitempty"`
}

// MarshalJSON renders the change in its NDJSON wire shape, spelling the
// operation as "insert" / "delete".
func (c Change) MarshalJSON() ([]byte, error) {
	return json.Marshal(changeJSON{
		Seq: c.Seq, Relation: c.Relation, Op: c.Op.String(),
		ID: c.ID, Vals: c.Vals, JoinKey: c.JoinKey,
	})
}

// UnmarshalJSON parses the NDJSON wire shape, validating the operation.
func (c *Change) UnmarshalJSON(b []byte) error {
	var w changeJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	op, err := ParseOp(w.Op)
	if err != nil {
		return err
	}
	*c = Change{Seq: w.Seq, Relation: w.Relation, Op: op, ID: w.ID, Vals: w.Vals, JoinKey: w.JoinKey}
	return nil
}
