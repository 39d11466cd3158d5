package server

import (
	"fmt"
	"sort"
	"sync"

	"progxe/internal/relation"
)

// Catalog is the concurrency-safe relation registry of the progressive query
// service. Relations are treated as immutable once registered — the engine
// contract requires inputs to stay frozen for the duration of a run — so
// replacing a name installs a new *Relation while in-flight runs keep
// evaluating against the snapshot they resolved at admission time.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*relation.Relation
	// vers assigns every name its registration generation: a strictly
	// increasing catalog-wide counter bumped on each Register/Remove. A
	// name's version therefore changes whenever its relation is replaced,
	// which is what keys compiled-plan cache entries — a mutation makes
	// every cached plan over the old snapshot unreachable (invalidation by
	// key miss) without touching the cache itself.
	vers map[string]uint64
	gen  uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		rels: make(map[string]*relation.Relation),
		vers: make(map[string]uint64),
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
// relation of that name.
func (c *Catalog) Register(rel *relation.Relation) error {
	_, _, err := c.RegisterCappedVersioned(rel, 0, 0)
	return err
}

// ErrCatalogFull reports a registration rejected by a catalog resource cap.
type ErrCatalogFull struct{ Reason string }

func (e ErrCatalogFull) Error() string { return "catalog: " + e.Reason }

// RegisterCappedVersioned is Register refusing registrations that would
// push the catalog past maxEntries relations or maxRows total resident rows
// (0 disables either cap) — together they bound the memory network clients
// can pin. Replacing an existing name is allowed as long as the row budget
// still holds. The checks and the insert run under one lock, so concurrent
// registrations cannot overshoot. It reports the generation assigned to the
// registration and whether it replaced an existing entry. The serve layer's change feed stamps catalog events with
// the generation, so event order and version order advance on one counter.
func (c *Catalog) RegisterCappedVersioned(rel *relation.Relation, maxEntries, maxRows int) (ver uint64, replaced bool, err error) {
	if rel == nil || rel.Schema == nil {
		return 0, false, fmt.Errorf("catalog: nil relation")
	}
	name := rel.Schema.Name
	if !validName(name) {
		return 0, false, fmt.Errorf("catalog: relation name %q is not a valid identifier", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, replacing := c.rels[name]
	if !replacing && maxEntries > 0 && len(c.rels) >= maxEntries {
		return 0, false, ErrCatalogFull{Reason: fmt.Sprintf("already holds %d relations; delete one first", maxEntries)}
	}
	if maxRows > 0 {
		total := rel.Len()
		for n, r := range c.rels {
			if n != name {
				total += r.Len()
			}
		}
		if total > maxRows {
			return 0, false, ErrCatalogFull{Reason: fmt.Sprintf("registering %d rows would exceed the %d-row budget; delete a relation first", rel.Len(), maxRows)}
		}
	}
	c.rels[name] = rel
	c.gen++
	c.vers[name] = c.gen
	return c.gen, replacing, nil
}

// Get resolves a relation by name.
func (c *Catalog) Get(name string) (*relation.Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rel, ok := c.rels[name]
	return rel, ok
}

// GetVersioned resolves a relation together with its registration version.
// The pair is read under one lock, so the version identifies exactly the
// returned snapshot — the property plan-cache keys depend on.
func (c *Catalog) GetVersioned(name string) (*relation.Relation, uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rel, ok := c.rels[name]
	return rel, c.vers[name], ok
}

// Remove deletes a relation, reporting whether it existed.
func (c *Catalog) Remove(name string) bool {
	_, ok := c.RemoveVersioned(name)
	return ok
}

// RemoveVersioned is Remove additionally reporting the generation the
// removal advanced the catalog to, for stamping the dropped-relation event.
func (c *Catalog) RemoveVersioned(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.rels[name]
	delete(c.rels, name)
	if ok {
		delete(c.vers, name)
		c.gen++
	}
	return c.gen, ok
}

// Len returns the number of registered relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
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
