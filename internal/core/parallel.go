package core

import (
	"context"
	"sync"
	"sync/atomic"

	"progxe/internal/grid"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/par"
	"progxe/internal/smj"
)

// Parallel region processing.
//
// Tuple-level processing of one region decomposes into two stages with very
// different concurrency properties:
//
//  1. the candidate stream — join matching, mapping-function evaluation,
//     output-cell routing and coordinate sums — is a pure function of the
//     region's input partitions and the (immutable) grid and mapping set;
//  2. the tuple-level protocol (dominance check, eviction, buffer insertion,
//     populate marking, progressive determination) reads and mutates shared
//     bookkeeping whose order defines the emission stream.
//
// Every run builds (1) through the pool below, which parallelizes it across
// regions: prefetch workers materialize candidate streams into per-job
// arenas while earlier regions commit; with no workers the sequencer builds
// each stream inline at its turn. Stage (2) stays on the sequencer goroutine,
// which commits each candidate in the canonical stream order, so the
// externally observable run — emissions, trace events and every counter —
// is byte-identical regardless of GOMAXPROCS, worker count, or goroutine
// scheduling.
//
// A cell-sharded space with per-cell locks was considered and rejected:
// phase-1/phase-2 scans cross cells, so insert outcomes under concurrent
// commit would depend on interleaving (arrival-order tie-breaks, the
// populate/marking race), which is irreconcilable with a bit-for-bit
// deterministic stream. A parallel phase-1 check of each round against the
// frozen pre-round space was built and measured slower than committing
// directly (its barrier cost more than the commit-time scans it saved).
// Sharding only the *stream construction* keeps every mutation — and every
// comparison — single-owner instead.

// cand is one mapped join result awaiting the tuple-level protocol: the
// joined pair, the coordinate sum, and the flat id of its output cell. Its
// canonical output vector is the k-th d-wide slice of the stream's block.
type cand struct {
	leftID, rightID int64
	sum             float64
	flat            int
}

// candBuf is the reusable arena for one region's candidate stream. Vectors
// are carved out of one backing block; workers recycle theirs through the
// pool's free list and the sequencer keeps one of its own, so a warm pool
// materializes streams without per-tuple (or even per-region) heap
// allocations.
type candBuf struct {
	cands []cand
	block []float64
}

// ensure sizes the buffer for n candidates of dimension d, reusing capacity.
func (b *candBuf) ensure(n, d int) {
	if cap(b.cands) < n {
		b.cands = make([]cand, n)
	} else {
		b.cands = b.cands[:n]
	}
	if cap(b.block) < n*d {
		b.block = make([]float64, n*d)
	} else {
		b.block = b.block[:n*d]
	}
}

// Job lifecycle: a job is idle until the sequencer publishes it onto the
// feed, and published until it is taken — by a worker, to build its stream,
// or by the sequencer, to build it inline at the region's turn or to drop it
// on discard. A job the sequencer takes while idle is never published.
const (
	jobIdle int32 = iota
	jobPublished
	jobTaken
)

// regionJob tracks the prefetch state of one region's candidate stream.
type regionJob struct {
	state    atomic.Int32
	done     chan struct{} // made at publish; closed when a worker's build ends
	buf      *candBuf
	n        int // candidates materialized (== joinCard unless canceled)
	panicked any // the building worker's panic, parked for the sequencer
}

// wait blocks until the job's stream is built. A panic that ended the
// build on a worker is raised again here, on the sequencer — the goroutine
// the caller's recover guards — so a faulty run fails alone instead of
// taking the process down.
func (j *regionJob) wait() {
	<-j.done
	if j.panicked != nil {
		panic(j.panicked)
	}
}

// pool runs tuple-level stream construction for one engine run. The
// sequencer alone reads the run's order: it publishes the next region ids
// onto feed and keeps at most window published streams unconsumed, so
// memory stays proportional to the worker count rather than the whole join.
// Workers only receive ids. With no workers the window is 0: nothing is
// published and every stream is built inline, into the sequencer's own
// buffer.
type pool struct {
	workers int
	d       int
	maps    *mapping.Set
	g       *grid.Grid
	ctx     context.Context
	regions []*region
	jobs    []regionJob

	// Sequencer-owned: order is the run's schedule, next the first position
	// not yet considered for publishing, inflight the published jobs the
	// sequencer has not finished with (at most window), inline the arena for
	// streams built at their turn.
	order    []int32
	next     int
	window   int
	inflight int
	inline   candBuf

	// feed has room for every region: an id is published at most once, so a
	// send never blocks, however many ids the sequencer took first still sit
	// in it. nil without workers; closed by stop.
	feed    chan int32
	wg      sync.WaitGroup
	bufFree chan *candBuf

	// prof attributes worker-side stream construction to worker lanes
	// (nil-safe).
	prof *obs.Profiler
}

// newPool sizes the pool for a run over the given regions. It does not
// start any goroutine; the sequencer calls start once the order is known.
func newPool(ctx context.Context, workers int, s *space, regions []*region, maps *mapping.Set) *pool {
	p := &pool{
		workers: workers,
		d:       s.d,
		maps:    maps,
		g:       s.g,
		ctx:     ctx,
		regions: regions,
		jobs:    make([]regionJob, len(regions)),
		prof:    s.prof,
	}
	// The inline arena is sized once, for the largest stream, rather than
	// regrown each time a larger region comes up.
	maxCard := 0
	for _, reg := range regions {
		maxCard = max(maxCard, reg.joinCard)
	}
	p.inline.ensure(maxCard, s.d)
	if workers > 0 {
		p.window = workers + 2
		p.feed = make(chan int32, len(regions))
		p.bufFree = make(chan *candBuf, p.window+workers+1)
	}
	return p
}

// start launches the prefetch workers on profiler lanes 1..workers (lane 0
// is the sequencer's) and publishes the first window of the order.
// Prefetching a region that is later discarded wastes only the stream
// construction, never correctness.
func (p *pool) start(order []int32) {
	p.order = order
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.prefetchWorker(1 + i)
	}
	p.publish()
}

// stop closes the feed and waits for the workers to drain it and exit; safe
// to call once even if start never ran. Ids still on the feed at a normal
// end are all taken, so the workers skip them.
func (p *pool) stop() {
	if p.feed != nil {
		close(p.feed)
	}
	p.wg.Wait()
}

// publish tops up the prefetch window from the order, skipping regions the
// sequencer already took.
func (p *pool) publish() {
	for p.inflight < p.window && p.next < len(p.order) {
		id := p.order[p.next]
		p.next++
		j := &p.jobs[id]
		if j.state.Load() != jobIdle {
			continue
		}
		j.done = make(chan struct{})
		j.state.Store(jobPublished)
		p.inflight++
		p.feed <- id
	}
}

func (p *pool) getBuf() *candBuf {
	select {
	case b := <-p.bufFree:
		return b
	default:
		return &candBuf{}
	}
}

func (p *pool) putBuf(b *candBuf) {
	select {
	case p.bufFree <- b:
	default:
	}
}

// mapStream materializes the region's candidate stream into buf by probing
// the right partition's plan-resident key index in the canonical order —
// left tuples outer, right build order inner, join.Hash's order — so the
// sequencer's commits are the same whoever built the stream. Returns the
// number of candidates written (short only when canceled mid-stream, in
// which case the run is aborting anyway).
func (p *pool) mapStream(reg *region, buf *candBuf, cancel *smj.Canceler) int {
	a, b := reg.a, reg.b
	buf.ensure(reg.joinCard, p.d)
	k := 0
	for li, key := range a.jkeys {
		lo, hi := b.keys.lookup(key)
		lv, lid := a.row(li), a.ids[li]
		for ri := int(lo); ri < int(hi); ri++ {
			if cancel.Check() != nil {
				return k
			}
			v := buf.block[k*p.d : (k+1)*p.d : (k+1)*p.d]
			p.maps.Map(lv, b.row(ri), v)
			sum := 0.0
			for _, x := range v {
				sum += x
			}
			buf.cands[k] = cand{
				leftID:  lid,
				rightID: b.ids[ri],
				sum:     sum,
				flat:    p.g.CellOf(v),
			}
			k++
		}
	}
	return k
}

// prefetchWorker builds the streams of the ids it receives from the feed,
// skipping any the sequencer took first.
func (p *pool) prefetchWorker(lane int) {
	defer p.wg.Done()
	cancel := smj.NewCanceler(p.ctx)
	for id := range p.feed {
		j := &p.jobs[id]
		if !j.state.CompareAndSwap(jobPublished, jobTaken) {
			continue
		}
		p.prefetch(j, p.regions[id], lane, cancel)
		if j.panicked != nil || cancel.Now() != nil {
			return
		}
	}
}

// prefetch builds one taken job's stream on a worker and closes done. A
// build that panics parks the panic on the job for wait to raise on the
// sequencer; done is closed either way, so nothing waits on it forever.
func (p *pool) prefetch(j *regionJob, reg *region, lane int, cancel *smj.Canceler) {
	defer func() {
		j.panicked = recover()
		close(j.done)
	}()
	if par.YieldHook != nil {
		par.YieldHook()
	}
	j.buf = p.getBuf()
	t0 := p.prof.Clock()
	j.n = p.mapStream(reg, j.buf, cancel)
	p.prof.EndWorker(obs.PhasePrefetch, lane, t0)
}

// take hands the sequencer a region's candidate stream: prefetched if a
// worker took the job first, built inline into the sequencer's own buffer
// otherwise. The sequencer must pair every take with finish.
func (p *pool) take(reg *region, cancel *smj.Canceler) (*candBuf, int) {
	j := &p.jobs[reg.id]
	if j.state.Swap(jobTaken) == jobTaken {
		j.wait()
		return j.buf, j.n
	}
	return &p.inline, p.mapStream(reg, &p.inline, cancel)
}

// finish releases a job the sequencer is done with: its arena returns to the
// free list, its place in the window to the next unpublished region.
func (p *pool) finish(reg *region) {
	j := &p.jobs[reg.id]
	if j.done == nil {
		return // never published
	}
	if j.buf != nil {
		p.putBuf(j.buf)
		j.buf = nil
	}
	p.inflight--
	p.publish()
}

// drop releases the job of a discarded region. A stream already in flight
// is waited out (bounded by one region's construction) so its arena returns
// to the pool instead of leaking for the rest of the run.
func (p *pool) drop(reg *region) {
	if j := &p.jobs[reg.id]; j.state.Swap(jobTaken) == jobTaken {
		j.wait()
	}
	p.finish(reg)
}

// The deterministic parallel-for behind the setup passes (region pruning,
// coverage, static marking) lives in internal/par, shared with the
// scheduler layer's graph construction.
