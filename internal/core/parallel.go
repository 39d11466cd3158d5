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
// The pool below parallelizes (1) across regions: prefetch workers
// materialize candidate streams into per-job arenas while earlier regions
// commit. Stage (2) stays on the sequencer goroutine, which runs the serial
// engine's protocol on each candidate in the serial engine's order, so the
// externally observable run — emissions, trace events and every counter —
// is byte-identical to the serial engine regardless of GOMAXPROCS, worker
// count, or goroutine scheduling.
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
// joined pair, its canonical output vector (backed by the job's block),
// the coordinate sum, and the flat id of its output cell.
type cand struct {
	leftID, rightID int64
	sum             float64
	flat            int
	v               []float64
}

// candBuf is the reusable per-job arena for one region's candidate stream.
// Vectors are carved out of one backing block; both slices are recycled
// through the pool's free list, so a warm pool materializes streams without
// per-tuple (or even per-region) heap allocations.
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

// Job lifecycle: a worker (or the sequencer, inline) claims an unclaimed
// job, materializes the stream, and marks it done; the sequencer consumes
// it when the region's turn comes (or drops it on region discard).
const (
	jobUnclaimed int32 = iota
	jobClaimed
	jobDone
	jobConsumed
)

// regionJob tracks the prefetch state of one region's candidate stream.
type regionJob struct {
	state    atomic.Int32
	reg      *region
	done     chan struct{} // closed when state reaches jobDone
	budgeted bool          // claimed by a worker holding an in-flight slot
	buf      *candBuf
	n        int // candidates materialized (== reg.joinCard unless canceled)
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

// pool runs parallel region processing for one engine run.
type pool struct {
	workers int
	d       int
	maps    *mapping.Set
	g       *grid.Grid
	ctx     context.Context

	jobs   []regionJob
	order  []int32 // prefetch priority: region ids, most-urgent first
	cursor atomic.Int32

	sem  chan struct{} // bounds claimed-but-unconsumed prefetch jobs
	quit chan struct{}
	wg   sync.WaitGroup

	bufFree chan *candBuf

	// prof attributes worker-side stream construction to worker lanes
	// (nil-safe; set by the engine before start).
	prof *obs.Profiler
}

// newPool sizes the pool for a run over the given regions. It does not
// start any goroutine; the sequencer calls start once the prefetch order is
// known.
func newPool(ctx context.Context, workers int, s *space, regions []*region, maps *mapping.Set) *pool {
	if ctx == nil {
		ctx = context.Background()
	}
	inflight := workers + 2
	p := &pool{
		workers: workers,
		d:       s.d,
		maps:    maps,
		g:       s.g,
		ctx:     ctx,
		jobs:    make([]regionJob, len(regions)),
		sem:     make(chan struct{}, inflight),
		quit:    make(chan struct{}),
		bufFree: make(chan *candBuf, inflight+workers+1),
	}
	for i := range p.jobs {
		p.jobs[i].reg = regions[i]
		p.jobs[i].done = make(chan struct{})
	}
	return p
}

// start launches the prefetch workers on profiler lanes 1..workers (lane 0
// is the sequencer's). order is the run's schedule, which nothing writes
// once the workers start; prefetching a region that is later discarded
// wastes only the stream construction, never correctness.
func (p *pool) start(order []int32) {
	p.order = order
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.prefetchWorker(1 + i)
	}
}

// stop terminates the workers and waits for them; safe to call once even if
// start never ran.
func (p *pool) stop() {
	close(p.quit)
	p.wg.Wait()
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
// left tuples outer, right build order inner — which is exactly the serial
// path's, so the sequencer's commits replay the serial engine verbatim.
// Returns the number of candidates written (short only when canceled
// mid-stream, in which case the run is aborting anyway).
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
				v:       v,
			}
			k++
		}
	}
	return k
}

// claimNext claims the most urgent unclaimed job, or nil when none remain.
func (p *pool) claimNext() *regionJob {
	for {
		i := p.cursor.Load()
		if int(i) >= len(p.order) {
			return nil
		}
		j := &p.jobs[p.order[i]]
		claimed := j.state.CompareAndSwap(jobUnclaimed, jobClaimed)
		p.cursor.CompareAndSwap(i, i+1)
		if claimed {
			return j
		}
	}
}

// prefetchWorker materializes candidate streams ahead of the sequencer,
// bounded by the in-flight budget so memory stays proportional to the
// worker count rather than the whole join.
func (p *pool) prefetchWorker(lane int) {
	defer p.wg.Done()
	cancel := smj.NewCanceler(p.ctx)
	for {
		select {
		case <-p.quit:
			return
		case p.sem <- struct{}{}:
		}
		j := p.claimNext()
		if j == nil {
			<-p.sem
			return
		}
		j.budgeted = true
		p.prefetch(j, lane, cancel)
		if j.panicked != nil || cancel.Now() != nil {
			return
		}
	}
}

// prefetch builds one claimed job's stream on a worker and publishes it. A
// build that panics parks the panic on the job for wait to raise on the
// sequencer and gives its slot back here, because no finish will follow; the
// job is published either way, so nothing waits on it forever.
func (p *pool) prefetch(j *regionJob, lane int, cancel *smj.Canceler) {
	defer func() {
		if j.panicked = recover(); j.panicked != nil {
			j.budgeted = false
			<-p.sem
		}
		j.state.Store(jobDone)
		close(j.done)
	}()
	if par.YieldHook != nil {
		par.YieldHook()
	}
	j.buf = p.getBuf()
	t0 := p.prof.Clock()
	j.n = p.mapStream(j.reg, j.buf, cancel)
	p.prof.EndWorker(obs.PhasePrefetch, lane, t0)
}

// take hands the sequencer a region's candidate stream: prefetched if a
// worker got there first, computed inline otherwise. The sequencer must
// pair every take with finish.
func (p *pool) take(reg *region, cancel *smj.Canceler) (*candBuf, int) {
	j := &p.jobs[reg.id]
	if j.state.CompareAndSwap(jobUnclaimed, jobClaimed) {
		j.buf = p.getBuf()
		j.n = p.mapStream(reg, j.buf, cancel)
		j.state.Store(jobDone)
		close(j.done)
	} else {
		j.wait()
	}
	return j.buf, j.n
}

// finish releases a consumed job's arena and in-flight slot.
func (p *pool) finish(reg *region) {
	j := &p.jobs[reg.id]
	j.state.Store(jobConsumed)
	if j.buf != nil {
		p.putBuf(j.buf)
		j.buf = nil
	}
	if j.budgeted {
		<-p.sem
	}
}

// drop releases the job of a discarded region. A stream already in flight
// is waited out (bounded by one region's construction) so its slot and
// arena return to the pool instead of leaking for the rest of the run.
func (p *pool) drop(reg *region) {
	j := &p.jobs[reg.id]
	if j.state.CompareAndSwap(jobUnclaimed, jobConsumed) {
		return
	}
	j.wait()
	p.finish(reg)
}

// The deterministic parallel-for behind the setup passes (region pruning,
// coverage, static marking) lives in internal/par, shared with the
// scheduler layer's graph construction.
