package server

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net/http"

	"progxe/internal/feed"
	"progxe/internal/relation"
)

// eventKind classifies one catalog event on the change ring.
type eventKind int8

const (
	// eventChange is a single-tuple insert or delete applied through the
	// change feed; subscriptions fold it into their resident output space.
	eventChange eventKind = iota
	// eventDropped is a wholesale DELETE of a relation; subscriptions on it
	// terminate with relation_dropped.
	eventDropped
	// eventReplaced is a wholesale re-registration (upload/generate) of an
	// existing name; subscriptions on it terminate with relation_replaced —
	// their snapshot has diverged beyond incremental repair.
	eventReplaced
)

// catalogEvent is one entry of the server-wide change ring (Server.changes),
// the bounded replay of recent catalog events that live subscriptions read:
// the feed writer never waits for a subscription, and one that falls off the
// tail is terminated with replay_truncated. seq is the catalog generation
// assigned to the mutation, so event order, catalog versions, and plan-cache
// invalidation all advance on one counter.
type catalogEvent struct {
	seq      uint64
	relation string
	kind     eventKind
	change   feed.Change // valid for eventChange
}

// ApplyChange validates and applies one change-feed mutation to the catalog:
// the named relation is replaced by a snapshot with the tuple inserted or
// deleted, the catalog version advances (invalidating cached plans by key
// miss, exactly like an upload), and the stamped change — Seq set to the new
// catalog generation — is published to live subscriptions. Returns the
// stamped change.
//
// Mutations are serialized (one writer at a time), so the change ring's
// event order matches the sequence of catalog states.
func (s *Server) ApplyChange(c feed.Change) (feed.Change, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	rel, ok := s.catalog.Get(c.Relation)
	if !ok {
		return feed.Change{}, httpErrorf(http.StatusNotFound, errRelationNotFound,
			"relation %q is not in the catalog", c.Relation)
	}
	next := relation.New(rel.Schema)
	switch c.Op {
	case feed.OpInsert:
		if len(c.Vals) != rel.Schema.Arity() {
			return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
				"insert into %q has %d values, schema has %d", c.Relation, len(c.Vals), rel.Schema.Arity())
		}
		for i, v := range c.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
					"insert into %q: value %d is not finite", c.Relation, i)
			}
		}
		for _, t := range rel.Tuples {
			if t.ID == c.ID {
				return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
					"insert into %q: id %d already exists", c.Relation, c.ID)
			}
		}
		next.Tuples = make([]relation.Tuple, len(rel.Tuples), len(rel.Tuples)+1)
		copy(next.Tuples, rel.Tuples)
		next.Tuples = append(next.Tuples, relation.Tuple{
			ID: c.ID, Vals: append([]float64(nil), c.Vals...), JoinKey: c.JoinKey,
		})
	case feed.OpDelete:
		found := false
		next.Tuples = make([]relation.Tuple, 0, len(rel.Tuples))
		for _, t := range rel.Tuples {
			if t.ID == c.ID {
				found = true
				continue
			}
			next.Tuples = append(next.Tuples, t)
		}
		if !found {
			return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
				"delete from %q: id %d does not exist", c.Relation, c.ID)
		}
	default:
		return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange, "unknown op %d", c.Op)
	}
	ver, _, err := s.catalog.RegisterCappedVersioned(next, s.cfg.MaxRelations, s.cfg.MaxTotalRows)
	switch {
	case err == nil:
	case errors.As(err, &ErrCatalogFull{}):
		return feed.Change{}, httpErrorf(http.StatusConflict, errCatalogFull, "%v", err)
	default:
		return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange, "%v", err)
	}
	c.Seq = ver
	s.changes.append(catalogEvent{seq: ver, relation: c.Relation, kind: eventChange, change: c})
	s.metrics.subChangesApplied(1)
	return c, nil
}

// publishCatalogEvent records a wholesale catalog mutation (drop or replace)
// on the change ring so live subscriptions on the relation terminate
// deterministically instead of serving a stale snapshot.
func (s *Server) publishCatalogEvent(seq uint64, name string, kind eventKind) {
	s.changes.append(catalogEvent{seq: seq, relation: name, kind: kind})
}

// ChangesResponse is the body of a successful POST /v1/relations/{name}/changes.
type ChangesResponse struct {
	// Applied counts the change lines folded into the catalog.
	Applied int `json:"applied"`
	// LastSeq is the catalog sequence of the final applied change; a
	// subscription checkpoint at or past it has folded the whole batch in.
	LastSeq uint64 `json:"lastSeq"`
}

// handleApplyChanges is POST /v1/relations/{name}/changes: a batch of change
// lines (NDJSON or CSV, one change per line, the feed connector wire format)
// applied in order to the named relation. Lines naming a different relation
// are rejected; lines naming none inherit the path's. Application stops at
// the first invalid line — earlier lines stay applied, and the error message
// reports how many were.
func (s *Server) handleApplyChanges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	applied, lastSeq, lineNo := 0, uint64(0), 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		c, err := feed.ParseLine(string(line))
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadChange,
				"line %d: %v (%d changes already applied)", lineNo, err, applied)
			return
		}
		if c.Relation == "" {
			c.Relation = name
		}
		if c.Relation != name {
			writeError(w, http.StatusBadRequest, errBadChange,
				"line %d names relation %q, path names %q (%d changes already applied)",
				lineNo, c.Relation, name, applied)
			return
		}
		stamped, err := s.ApplyChange(c)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				writeError(w, he.status, he.code, "line %d: %s (%d changes already applied)", lineNo, he.msg, applied)
			} else {
				writeError(w, http.StatusInternalServerError, errInternal, "line %d: %v", lineNo, err)
			}
			return
		}
		applied++
		lastSeq = stamped.Seq
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, errBadChange, "reading change batch: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ChangesResponse{Applied: applied, LastSeq: lastSeq})
}
