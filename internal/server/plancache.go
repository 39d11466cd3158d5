package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"progxe/internal/core"
	"progxe/internal/smj"
)

// errPlanPanic is the error the sharers of a plan build that panicked get.
var errPlanPanic = errors.New("plan build panicked")

// planKey identifies one compiled plan: the engine (whose registry name
// fixes every plan-affecting option), the normalized query text, and the
// catalog versions of both referenced relations. Catalog mutations bump the
// versions, so stale plans are invalidated by key miss — they simply age out
// of the LRU.
type planKey struct {
	engine   string // registry name, lowercased
	query    string // canonical rendering (query.Query.String)
	leftVer  uint64
	rightVer uint64
}

// planEntry is one cached compilation: the compiled problem (selection
// push-down applied, relations snapshotted) and, for engines of the ProgXe
// family, the prepared plan snapshot whose reuse skips the partition /
// region-build / prune phases. Baselines cache the problem alone.
type planEntry struct {
	problem *smj.Problem
	plan    *core.Prepared // nil for engines without plan support
}

// planEngine is the prepared-plan capability of the ProgXe family
// (implemented by *core.Engine); engines constructed through the NewEngine
// seam are probed for it with a type assertion.
type planEngine interface {
	smj.Engine
	PrepareContext(ctx context.Context, p *smj.Problem) (*core.Prepared, error)
	RunPlanContext(ctx context.Context, pl *core.Prepared, sink smj.Sink) (smj.Stats, error)
}

// planCache is a mutex-guarded LRU of compiled plans with single-flight
// build deduplication: concurrent requests for the same missing key share
// one compilation — the builder counts the miss, the sharers count hits —
// so a cold burst compiles once instead of N times.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[planKey]*list.Element
	lru     *list.List // front = most recent; values are *planNode
	hits    func()
	misses  func()
}

// planNode is one LRU slot. A node is inserted before its build completes;
// ready is closed once value/err are final, and sharers wait on it outside
// the cache lock.
type planNode struct {
	key   planKey
	ready chan struct{}
	value *planEntry
	err   error
}

func newPlanCache(max int, hits, misses func()) *planCache {
	return &planCache{
		max:     max,
		entries: make(map[planKey]*list.Element),
		lru:     list.New(),
		hits:    hits,
		misses:  misses,
	}
}

// getOrBuild returns the cached entry for key, building it with build on a
// miss; hit reports which happened (sharers of an in-flight build count as
// hits — they skipped a compilation). Concurrent callers of the same
// missing key block until the one builder finishes and share its result;
// build errors are not cached — the failed node is removed so a later
// request retries. A build that panics fails its sharers with
// errPlanPanic, is removed the same way, and re-panics in the builder.
func (pc *planCache) getOrBuild(key planKey, build func() (*planEntry, error)) (entry *planEntry, hit bool, err error) {
	pc.mu.Lock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		node := el.Value.(*planNode)
		pc.mu.Unlock()
		pc.hits()
		<-node.ready
		if node.err != nil {
			return nil, true, node.err
		}
		return node.value, true, nil
	}
	node := &planNode{key: key, ready: make(chan struct{})}
	el := pc.lru.PushFront(node)
	pc.entries[key] = el
	for pc.lru.Len() > pc.max {
		old := pc.lru.Back()
		pc.lru.Remove(old)
		delete(pc.entries, old.Value.(*planNode).key)
	}
	pc.mu.Unlock()
	pc.misses()

	// Drop the failed node so the error is not served forever — but only if
	// it is still ours (eviction + reinsertion may have replaced it).
	drop := func() {
		pc.mu.Lock()
		if cur, ok := pc.entries[key]; ok && cur == el {
			pc.lru.Remove(el)
			delete(pc.entries, key)
		}
		pc.mu.Unlock()
	}
	defer func() {
		if p := recover(); p != nil {
			node.err = fmt.Errorf("%w: %v", errPlanPanic, p)
			close(node.ready)
			drop()
			panic(p)
		}
	}()
	node.value, node.err = build()
	close(node.ready)
	if node.err != nil {
		drop()
		return nil, false, node.err
	}
	return node.value, false, nil
}

// len reports the resident entry count (including in-flight builds).
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}
