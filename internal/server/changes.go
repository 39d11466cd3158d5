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

// ApplyChange validates and applies one change-feed mutation to the catalog:
// the named relation is replaced by a snapshot with the tuple inserted or
// deleted, the catalog version advances (invalidating cached plans by key
// miss, exactly like an upload), and the change — Seq set to the new catalog
// generation — is published to live subscriptions. Returns the stamped
// change.
func (s *Server) ApplyChange(c feed.Change) (feed.Change, error) {
	c, err := s.catalog.apply(c, s.cfg.MaxRelations, s.cfg.MaxTotalRows)
	if err != nil {
		return feed.Change{}, err
	}
	s.metrics.subChangesApplied(1)
	return c, nil
}

// apply is the catalog's change-feed mutation (see ApplyChange). Writers are
// serialized for the whole call, so the copy starts from the latest relation;
// the copy runs outside mu, so readers never wait on it.
func (c *Catalog) apply(ch feed.Change, maxEntries, maxRows int) (feed.Change, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	rel, ok := c.rels[ch.Relation]
	if !ok {
		return feed.Change{}, httpErrorf(http.StatusNotFound, errRelationNotFound,
			"relation %q is not in the catalog", ch.Relation)
	}
	next := relation.New(rel.Schema)
	switch ch.Op {
	case feed.OpInsert:
		if len(ch.Vals) != rel.Schema.Arity() {
			return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
				"insert into %q has %d values, schema has %d", ch.Relation, len(ch.Vals), rel.Schema.Arity())
		}
		for i, v := range ch.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
					"insert into %q: value %d is not finite", ch.Relation, i)
			}
		}
		for _, t := range rel.Tuples {
			if t.ID == ch.ID {
				return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
					"insert into %q: id %d already exists", ch.Relation, ch.ID)
			}
		}
		next.Tuples = make([]relation.Tuple, len(rel.Tuples), len(rel.Tuples)+1)
		copy(next.Tuples, rel.Tuples)
		next.Tuples = append(next.Tuples, relation.Tuple{
			ID: ch.ID, Vals: append([]float64(nil), ch.Vals...), JoinKey: ch.JoinKey,
		})
	case feed.OpDelete:
		found := false
		next.Tuples = make([]relation.Tuple, 0, len(rel.Tuples))
		for _, t := range rel.Tuples {
			if t.ID == ch.ID {
				found = true
				continue
			}
			next.Tuples = append(next.Tuples, t)
		}
		if !found {
			return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange,
				"delete from %q: id %d does not exist", ch.Relation, ch.ID)
		}
	default:
		return feed.Change{}, httpErrorf(http.StatusBadRequest, errBadChange, "unknown op %d", ch.Op)
	}
	if _, err := c.fits(ch.Relation, next.Len(), maxEntries, maxRows); err != nil {
		return feed.Change{}, httpErrorf(http.StatusConflict, errCatalogFull, "%v", err)
	}
	ch.Seq = c.swap(catalogEvent{relation: ch.Relation, kind: eventChange, change: ch}, next, true)
	return ch, nil
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
