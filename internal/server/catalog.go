package server

import (
	"fmt"
	"sort"
	"sync"

	"progxe/internal/feed"
	"progxe/internal/relation"
)

// Catalog is the concurrency-safe relation registry of the progressive query
// service and the one owner of its history. Relations are treated as
// immutable once registered — the engine contract requires inputs to stay
// frozen for the duration of a run — so replacing a name installs a new
// *Relation while in-flight runs keep evaluating against the snapshot they
// resolved at admission time.
//
// Every mutation a live subscription must see — a replacement (Register over
// an existing name, library calls included), a Remove, a change-feed apply —
// appends its event to the bounded change log under the same lock as the
// swap it describes, so a snapshot (relations, versions and log cursor under
// one lock) holds every event before its cursor and none after it.
type Catalog struct {
	// wmu serializes writers for a whole mutation, so a change is rebuilt
	// from the latest relation; mu covers only the swap and its event, so the
	// O(rows) rebuild never delays a reader.
	wmu  sync.Mutex
	mu   sync.RWMutex
	rels map[string]*relation.Relation
	// vers assigns every name its registration generation: a strictly
	// increasing catalog-wide counter bumped on every mutation. A name's
	// version therefore changes whenever its relation is replaced, which is
	// what keys compiled-plan cache entries — a mutation makes every cached
	// plan over the old snapshot unreachable (invalidation by key miss)
	// without touching the cache itself.
	vers map[string]uint64
	gen  uint64
	// log is the bounded replay of recent events that live subscriptions
	// read: the writer never waits for a subscription, and one that falls
	// off the tail is terminated with replay_truncated.
	log *ring[catalogEvent]
}

// eventKind classifies one event on the change log.
type eventKind int8

const (
	// eventChange is a single-tuple insert or delete applied through the
	// change feed; subscriptions fold it into their resident output space.
	eventChange eventKind = iota
	// eventDropped is a Remove; subscriptions on the relation terminate with
	// relation_dropped.
	eventDropped
	// eventReplaced is a re-registration of an existing name; subscriptions
	// on it terminate with relation_replaced — their snapshot has diverged
	// beyond incremental repair.
	eventReplaced
)

// catalogEvent is one entry of the change log. seq is the catalog generation
// the mutation produced, so event order, catalog versions, and plan-cache
// invalidation all advance on one counter.
type catalogEvent struct {
	seq      uint64
	relation string
	kind     eventKind
	change   feed.Change // valid for eventChange
}

// newCatalog returns an empty catalog whose change log keeps the last
// logSize events.
func newCatalog(logSize int) *Catalog {
	return &Catalog{
		rels: make(map[string]*relation.Relation),
		vers: make(map[string]uint64),
		log:  newRing[catalogEvent](logSize),
	}
}

// validName reports whether a relation name can appear as a table name in
// the PREFERRING dialect (identifier: letter or underscore, then letters,
// digits, underscores).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Register installs rel under its schema name, replacing any previous
// relation of that name (which ends its live subscriptions).
func (c *Catalog) Register(rel *relation.Relation) error {
	return c.register(rel, 0, 0)
}

// ErrCatalogFull reports a registration rejected by a catalog resource cap.
type ErrCatalogFull struct{ Reason string }

func (e ErrCatalogFull) Error() string { return "catalog: " + e.Reason }

// register is Register refusing registrations that would push the catalog
// past maxEntries relations or maxRows total resident rows (0 disables
// either cap) — together they bound the memory network clients can pin.
// Replacing an existing name is allowed as long as the row budget still
// holds.
func (c *Catalog) register(rel *relation.Relation, maxEntries, maxRows int) error {
	if rel == nil || rel.Schema == nil {
		return fmt.Errorf("catalog: nil relation")
	}
	name := rel.Schema.Name
	if !validName(name) {
		return fmt.Errorf("catalog: relation name %q is not a valid identifier", name)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	replacing, err := c.fits(name, rel.Len(), maxEntries, maxRows)
	if err == nil {
		c.swap(catalogEvent{relation: name, kind: eventReplaced}, rel, replacing)
	}
	return err
}

// fits checks the caps for installing rows rows under name and reports
// whether that replaces an entry. Callers hold wmu: only writers change rels.
func (c *Catalog) fits(name string, rows, maxEntries, maxRows int) (replacing bool, err error) {
	_, replacing = c.rels[name]
	if !replacing && maxEntries > 0 && len(c.rels) >= maxEntries {
		return false, ErrCatalogFull{Reason: fmt.Sprintf("already holds %d relations; delete one first", maxEntries)}
	}
	if maxRows > 0 {
		total := rows
		for n, r := range c.rels {
			if n != name {
				total += r.Len()
			}
		}
		if total > maxRows {
			return false, ErrCatalogFull{Reason: fmt.Sprintf("registering %d rows would exceed the %d-row budget; delete a relation first", rows, maxRows)}
		}
	}
	return replacing, nil
}

// swap installs rel under ev.relation (nil removes the name), advances the
// generation and, if publish, appends ev stamped with it — under the writer
// side of mu, so a snapshot sees the swap and its event together or
// neither. Callers hold wmu. It returns the new generation.
func (c *Catalog) swap(ev catalogEvent, rel *relation.Relation, publish bool) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if rel == nil {
		delete(c.rels, ev.relation)
		delete(c.vers, ev.relation)
	} else {
		c.rels[ev.relation], c.vers[ev.relation] = rel, c.gen
	}
	if publish {
		ev.seq = c.gen
		c.log.append(ev)
	}
	return c.gen
}

// Get resolves a relation by name.
func (c *Catalog) Get(name string) (*relation.Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rel, ok := c.rels[name]
	return rel, ok
}

// catalogSnapshot is one consistent read of a join's two relations: vers
// identifies exactly rels (what plan-cache keys rely on), and every change-log
// event from cursor on follows them.
type catalogSnapshot struct {
	rels   [2]*relation.Relation
	vers   [2]uint64
	cursor uint64
}

// snapshot reads the named relations, their versions and the change-log
// cursor under one lock. missing names the first relation not in the
// catalog, if any.
func (c *Catalog) snapshot(names [2]string) (snap catalogSnapshot, missing string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, name := range names {
		rel, ok := c.rels[name]
		if !ok {
			return catalogSnapshot{}, name
		}
		snap.rels[i], snap.vers[i] = rel, c.vers[name]
	}
	snap.cursor = c.log.cursor()
	return snap, ""
}

// Remove deletes a relation, reporting whether it existed. Its live
// subscriptions end; in-flight one-shot runs keep their snapshot.
func (c *Catalog) Remove(name string) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, ok := c.rels[name]
	if ok {
		c.swap(catalogEvent{relation: name, kind: eventDropped}, nil, true)
	}
	return ok
}

// RelationInfo describes one catalog entry for listings.
type RelationInfo struct {
	Name     string   `json:"name"`
	Attrs    []string `json:"attrs"`
	JoinAttr string   `json:"joinAttr"`
	Rows     int      `json:"rows"`
}

// List returns the catalog contents sorted by name.
func (c *Catalog) List() []RelationInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]RelationInfo, 0, len(c.rels))
	for name, rel := range c.rels {
		out = append(out, RelationInfo{
			Name:     name,
			Attrs:    append([]string(nil), rel.Schema.Attrs...),
			JoinAttr: rel.Schema.JoinAttr,
			Rows:     rel.Len(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
