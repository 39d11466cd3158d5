package server

import "sync"

// ring is a bounded replay buffer with one writer and any number of readers,
// each holding its own cursor (an absolute index into everything ever
// appended). The writer never waits: past max entries the oldest are evicted,
// and a reader whose cursor fell off the tail learns so from next instead of
// stalling the producer. Run groups replay encoded stream records through
// one, the change feed replays catalog events through another.
type ring[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []T    // absolute entry i lives at buf[i%max]; grows to max, then wraps
	total  uint64 // entries appended so far
	max    uint64
	closed bool
}

func newRing[T any](max int) *ring[T] {
	r := &ring[T]{max: uint64(max)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// append publishes one entry, overwriting the oldest past the bound, and
// wakes every waiting reader.
func (r *ring[T]) append(v T) {
	r.mu.Lock()
	if r.total < r.max {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%r.max] = v
	}
	r.total++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// cursor returns the absolute index one past the newest entry: a reader
// starting here sees exactly the entries appended after the call.
func (r *ring[T]) cursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// next blocks until entries past cursor exist, the ring is closed, or stop
// reports true (re-checked on every wake), then appends the pending entries
// to into and returns them with the advanced cursor. An empty batch means the
// reader is done: the ring is closed and drained, or stop fired. truncated
// reports that cursor has fallen off the ring's tail; the batch is empty in
// that case too.
func (r *ring[T]) next(cursor uint64, into []T, stop func() bool) (batch []T, nextCursor uint64, truncated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for cursor >= r.total && !r.closed && !stop() {
		r.cond.Wait()
	}
	if r.total > r.max && cursor < r.total-r.max {
		return into, cursor, true
	}
	for i := cursor; i < r.total; i++ {
		into = append(into, r.buf[i%r.max])
	}
	return into, r.total, false
}

// close marks the stream complete: readers drain what is buffered and then
// get an empty batch.
func (r *ring[T]) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// wake makes parked readers re-check their stop condition. Cond waits cannot
// observe a context, so readers wire this to theirs via context.AfterFunc.
// Broadcasting under the lock orders it after a reader that has already
// evaluated stop and is about to park.
func (r *ring[T]) wake() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast()
}
