package core

import (
	"context"
	"math"
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
// Tuple-level processing of one region decomposes into three stages with
// very different concurrency properties:
//
//  1. the candidate stream — join matching, mapping-function evaluation,
//     output-cell routing and coordinate sums — is a pure function of the
//     region's input partitions and the (immutable) grid and mapping set;
//  2. the phase-1 dominance check of each candidate reads the output space
//     but, against a fixed snapshot, is independent per candidate;
//  3. committing survivors (eviction, buffer insertion, populate marking,
//     progressive determination) mutates shared bookkeeping whose order
//     defines the emission stream.
//
// The pool below parallelizes (1) across regions — prefetch workers
// materialize candidate streams into per-job arenas while earlier regions
// commit — and (2) within a region: precheck workers scan the frozen
// pre-round space while the sequencer waits. Stage (3) stays on the
// sequencer goroutine, in the exact order the serial engine uses, so the
// externally observable run — emissions, trace events, and every counter
// except DomComparisons (which reflects where comparisons run, not what
// they decide) — is byte-identical to the serial engine regardless of
// GOMAXPROCS, worker count, or goroutine scheduling.
//
// A cell-sharded space with per-cell locks was considered and rejected:
// phase-1/phase-2 scans cross cells, so insert outcomes under concurrent
// commit would depend on interleaving (arrival-order tie-breaks, the
// populate/marking race), which is irreconcilable with a bit-for-bit
// deterministic stream. Sharding the *reads* (precheck) and the *stream
// construction* (prefetch) keeps every mutation single-owner instead.

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
}

// precheckTask asks for the phase-1 dominance verdicts of one chunk of the
// current round's candidates against the frozen pre-round space. Chunks
// write disjoint ranges of the shared rejected slice.
type precheckTask struct {
	s        *space
	cands    []cand
	rejected []bool
	lo       int
	comps    int
	wg       *sync.WaitGroup
}

// precheckState is the per-goroutine scratch for precheck scans: the visit
// stamps that dedup cells appearing in several coordinate buckets. Each
// goroutine owns one, so scans never touch the index's shared epoch.
type precheckState struct {
	visited []int32
	epoch   int32
}

func newPrecheckState(cells int) *precheckState {
	return &precheckState{visited: make([]int32, cells)}
}

// precheckMinCands is the round size below which the phase-1 precheck runs
// inline on the sequencer: distributing a handful of candidates costs more
// in barrier synchronization than the scans themselves. A variable (not
// const) so the differential tests can force each pooled commit path —
// precheck on every round, or never — regardless of round sizes. The
// threshold changes where phase 1 executes, never its verdicts.
var precheckMinCands = 256

// precheckChunk is the target candidates-per-task granularity.
const precheckChunk = 512

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

	taskCh   chan *precheckTask
	tasks    []precheckTask
	pwg      sync.WaitGroup
	seqState *precheckState // precheck scratch for the sequencer itself
	rejected []bool

	// prof attributes worker-side stream construction and precheck scans
	// to worker lanes (nil-safe; set by the engine before start).
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
		// Sized so the sequencer can publish a whole round's tasks without
		// blocking (chunking bounds the task count per round).
		taskCh:   make(chan *precheckTask, 4*workers+8),
		seqState: newPrecheckState(len(s.cellList)),
	}
	for i := range p.jobs {
		p.jobs[i].reg = regions[i]
		p.jobs[i].done = make(chan struct{})
	}
	return p
}

// start launches the prefetch and precheck workers. order lists region ids
// in descending scheduling urgency; prefetching a region that is later
// discarded wastes only the stream construction, never correctness.
func (p *pool) start(order []int32, cells int) {
	p.order = order
	// Profiler lanes: prefetch workers take 1..workers, precheck workers
	// workers+1..2·workers; lane 0 is the sequencer's.
	for i := 0; i < p.workers; i++ {
		p.wg.Add(2)
		go p.prefetchWorker(1 + i)
		go p.precheckWorker(1+p.workers+i, cells)
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
	lt, rt := reg.a.tuples, reg.b.tuples
	buf.ensure(reg.joinCard, p.d)
	k := 0
	for li := range lt {
		lv := lt[li].Vals
		for _, ri := range reg.b.keys.lookup(lt[li].JoinKey) {
			if cancel.Check() != nil {
				return k
			}
			v := buf.block[k*p.d : (k+1)*p.d : (k+1)*p.d]
			p.maps.Map(lv, rt[ri].Vals, v)
			sum := 0.0
			for _, x := range v {
				sum += x
			}
			buf.cands[k] = cand{
				leftID:  lt[li].ID,
				rightID: rt[ri].ID,
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
		if par.YieldHook != nil {
			par.YieldHook()
		}
		j.buf = p.getBuf()
		t0 := p.prof.Clock()
		j.n = p.mapStream(j.reg, j.buf, cancel)
		p.prof.EndWorker(obs.PhasePrefetch, lane, t0)
		j.state.Store(jobDone)
		close(j.done)
		if cancel.Now() != nil {
			return
		}
	}
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
		<-j.done
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
	<-j.done
	p.finish(reg)
}

// rejectedScratch returns the shared, cleared verdict slice for n candidates.
func (p *pool) rejectedScratch(n int) []bool {
	if cap(p.rejected) < n {
		p.rejected = make([]bool, n)
	} else {
		p.rejected = p.rejected[:n]
		clear(p.rejected)
	}
	return p.rejected
}

// precheck runs the phase-1 dominance check of every candidate against the
// frozen pre-round space, fanned across the precheck workers with the
// sequencer helping. It returns the number of dominance comparisons
// performed, accumulated in task order so the total is deterministic.
// The space MUST NOT be mutated while precheck runs; the sequencer
// guarantees that by blocking here until the barrier resolves.
func (p *pool) precheck(s *space, cands []cand, rejected []bool) int {
	chunk := (len(cands) + 3*p.workers) / (3*p.workers + 1)
	if chunk < precheckChunk {
		chunk = precheckChunk
	}
	p.tasks = p.tasks[:0]
	for lo := 0; lo < len(cands); lo += chunk {
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		p.tasks = append(p.tasks, precheckTask{
			s: s, cands: cands[lo:hi], rejected: rejected, lo: lo, wg: &p.pwg,
		})
	}
	p.pwg.Add(len(p.tasks))
	for i := range p.tasks {
		p.taskCh <- &p.tasks[i]
	}
	// Help drain the queue: with every worker busy the sequencer would
	// otherwise idle through its own barrier.
	for {
		select {
		case t := <-p.taskCh:
			t.run(p.seqState)
			continue
		default:
		}
		break
	}
	p.pwg.Wait()
	comps := 0
	for i := range p.tasks {
		comps += p.tasks[i].comps
	}
	return comps
}

// precheckWorker serves phase-1 scan tasks for the duration of the run. Only
// worker-served tasks report on the worker lane; tasks the sequencer drains
// itself are already inside its barrier span (no double counting).
func (p *pool) precheckWorker(lane int, cells int) {
	defer p.wg.Done()
	st := newPrecheckState(cells)
	for {
		select {
		case <-p.quit:
			return
		case t := <-p.taskCh:
			t0 := p.prof.Clock()
			t.run(st)
			p.prof.EndWorker(obs.PhasePrecheck, lane, t0)
		}
	}
}

// run computes the verdicts of one chunk.
func (t *precheckTask) run(st *precheckState) {
	comps := 0
	for k := range t.cands {
		if par.YieldHook != nil && k%64 == 0 {
			par.YieldHook()
		}
		cd := &t.cands[k]
		c := t.s.cellAt(cd.flat)
		if c == nil || c.marked {
			// Marked cells reject without dominance tests; the sequencer
			// handles (and counts) them at commit time, where marks added
			// by this very round are also visible.
			continue
		}
		if t.s.precheckDominated(c, cd.v, cd.sum, st, &comps) {
			t.rejected[t.lo+k] = true
		}
	}
	t.comps = comps
	t.wg.Done()
}

// stamp opens a fresh visit epoch in the goroutine-local scratch and
// pre-visits c, mirroring cellIndex.stamp (including wrap clearing)
// without touching shared state.
func (st *precheckState) stamp(c *cell) int32 {
	if st.epoch == math.MaxInt32 {
		st.epoch = 0
		clear(st.visited)
	}
	st.epoch++
	st.visited[c.seq] = st.epoch
	return st.epoch
}

// precheckDominated is the read-only twin of the insert phase-1 scan in
// space.insertSum: identical bucket enumeration, identical summary and sum
// cutoffs, but visit dedup through goroutine-local stamps and comparison
// counting into the task-local counter. Its verdict for a candidate equals
// the serial engine's rejection verdict restricted to pre-round survivors:
// sound because eviction only ever replaces a tuple with one that dominates
// it (so a stale dominator implies a live one), and exact because survivors
// re-run the full current-state protocol at commit time, which also sees
// this round's earlier insertions.
func (s *space) precheckDominated(c *cell, v []float64, sum float64, st *precheckState, comps *int) bool {
	epoch := st.stamp(c)
	if cellDominates(c, v, sum, comps) {
		return true
	}
	packed := s.idx.packed
	for i := 0; i < s.d; i++ {
		b := s.idx.buckets[i][c.coords[i]]
		for j := bucketSplit(b, c.flat) - 1; j >= 0; j-- {
			e := &b[j]
			if packed {
				if !keyLeq(e.key, c.key) {
					continue
				}
			} else if !grid.LeqAll(e.c.coords, c.coords) {
				continue
			}
			p := e.c
			if st.visited[p.seq] == epoch || len(p.tuples) == 0 {
				continue
			}
			st.visited[p.seq] = epoch
			if cellDominates(p, v, sum, comps) {
				return true
			}
		}
	}
	return false
}

// The deterministic parallel-for behind the setup passes (region pruning,
// coverage, static marking) lives in internal/par, shared with the
// scheduler layer's graph construction.
