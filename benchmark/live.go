package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"time"

	"progxe"
	"progxe/internal/core"
	"progxe/internal/feed"
	"progxe/internal/mapping"
)

// The shares of the measured window live_churn spends on its two kinds of
// operation: opening subscriptions (each one a full snapshot, over a second
// of work) and churning against the last one opened (thousands of changes a
// second). The snapshots get the larger share because they are the scarcer
// sample.
const (
	snapshotShare = 0.6
	churnShare    = 0.4
)

// churnRefEvery is how many changes the change loop makes between two runs
// of the reference kernel (≈ 0.15 s of changes per 0.03 s of kernel).
const churnRefEvery = 100

// churnPool is how many fresh tuples the change generator draws values from.
const churnPool = 4096

// applyChanges is how many changes the in-process apply cell folds in; a
// fixed count, so its work counters repeat exactly.
const applyChanges = 2000

func insertLine(id, joinKey int64, vals []float64) string {
	b, _ := feed.Change{Op: feed.OpInsert, ID: id, JoinKey: joinKey, Vals: vals}.MarshalJSON() // plain numbers cannot fail to encode
	return string(b)
}

func deleteLine(id int64) string {
	b, _ := feed.Change{Op: feed.OpDelete, ID: id}.MarshalJSON() // as above
	return string(b)
}

// churn generates the seeded change sequence against R: strictly alternating
// insert (a fresh tuple whose join key is sampled from T) and delete (uniform
// over the ids currently in R), so |R| stays put and no change can fail.
type churn struct {
	rng    *rand.Rand
	pool   []progxe.Tuple
	keys   []progxe.Tuple // T's tuples, for join-key sampling
	live   []int64
	nextID int64
	n      int
}

func newChurn(w workload, seed uint64, in *inputs) (*churn, error) {
	spec := w.spec(seed)
	spec.N, spec.Seed = churnPool, spec.Seed+1<<32
	pool, err := progxe.Generate(spec)
	if err != nil {
		return nil, err
	}
	c := &churn{
		rng:  rand.New(rand.NewPCG(seed, w.slot)),
		pool: pool.Tuples, keys: in.t.Tuples,
		nextID: int64(len(in.r.Tuples)),
	}
	for _, t := range in.r.Tuples {
		c.live = append(c.live, t.ID)
	}
	return c, nil
}

func (c *churn) next() feed.Change {
	defer func() { c.n++ }()
	if c.n%2 == 0 {
		id := c.nextID
		c.nextID++
		c.live = append(c.live, id)
		return feed.Change{
			Op: feed.OpInsert, ID: id, Vals: c.pool[(c.n/2)%len(c.pool)].Vals,
			JoinKey: c.keys[c.rng.IntN(len(c.keys))].JoinKey,
		}
	}
	i := c.rng.IntN(len(c.live))
	id := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	return feed.Change{Op: feed.OpDelete, ID: id}
}

// checkpoint is one consistency mark read off the subscription stream.
type checkpoint struct {
	seq uint64
	at  time.Time
}

// subscription is the reading side of one /v1/subscribe stream.
type subscription struct {
	ctx     context.Context
	cancel  context.CancelFunc
	resp    *http.Response
	sc      *bufio.Scanner
	marks   chan checkpoint
	done    chan struct{}
	live    map[[2]int64][]float64 // results minus retracts
	records int                    // result and retract records after the snapshot
	err     error
}

// subscribe opens the stream and reads the snapshot: every result up to the
// first checkpoint. The sample's clock starts just before the POST.
func subscribe(client *http.Client, base, sql string) (*subscription, opSample, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &timeSink{dig: newDigest(), start: time.Now()}
	resp, err := postStream(ctx, client, base+"/v1/subscribe", map[string]string{"query": sql})
	if err != nil {
		cancel()
		return nil, opSample{}, err
	}
	sub := &subscription{
		ctx: ctx, cancel: cancel, resp: resp, sc: newScanner(resp.Body),
		// Strictly one change is in flight, so one mark is ever pending.
		marks: make(chan checkpoint, 1), done: make(chan struct{}),
		live: map[[2]int64][]float64{},
	}
	for sub.sc.Scan() {
		rec, err := sub.record()
		if err != nil {
			sub.abandon()
			return nil, opSample{}, err
		}
		if rec.Type == "result" {
			sink.Emit(progxe.Result{LeftID: rec.LeftID, RightID: rec.RightID, Out: rec.Out})
		}
		if rec.Type == "checkpoint" {
			s, err := sink.sample(msSince(sink.start))
			if err != nil {
				sub.abandon()
				return nil, s, err
			}
			return sub, s, nil
		}
	}
	sub.abandon()
	return nil, opSample{}, fmt.Errorf("subscription ended before its snapshot checkpoint: %v", sub.sc.Err())
}

// record parses the scanner's current line and folds it into the live set.
func (s *subscription) record() (wireRecord, error) {
	var rec wireRecord
	if err := json.Unmarshal(s.sc.Bytes(), &rec); err != nil {
		return rec, fmt.Errorf("bad stream line: %w", err)
	}
	key := [2]int64{rec.LeftID, rec.RightID}
	switch rec.Type {
	case "result":
		s.live[key] = rec.Out
	case "retract":
		if _, ok := s.live[key]; !ok {
			return rec, fmt.Errorf("retract of (%d,%d), which was never delivered", rec.LeftID, rec.RightID)
		}
		delete(s.live, key)
	case "error":
		return rec, fmt.Errorf("error record %s: %s", rec.Code, rec.Message)
	}
	return rec, nil
}

// follow keeps reading after the snapshot, handing every checkpoint to the
// writer with the time it was parsed.
func (s *subscription) follow() {
	go func() {
		defer close(s.done)
		for s.sc.Scan() {
			rec, err := s.record()
			if err != nil {
				s.err = err
				return
			}
			switch rec.Type {
			case "result", "retract":
				s.records++
			case "checkpoint":
				select {
				case s.marks <- checkpoint{seq: rec.Seq, at: time.Now()}:
				case <-s.ctx.Done():
					return
				}
			}
		}
	}()
}

// abandon drops a subscription that is not being followed.
func (s *subscription) abandon() {
	s.cancel()
	s.resp.Body.Close()
}

// close ends a followed subscription and waits for its reader.
func (s *subscription) close() {
	s.cancel()
	<-s.done
	s.resp.Body.Close()
}

// changeSample is one change as the writer and the reader saw it.
type changeSample struct {
	insert                   bool
	post, toMark, visibleDur float64 // ms
}

// churnLoad is what the closed change loop observed.
type churnLoad struct {
	changes []changeSample
	busy    float64 // seconds spent inside change cycles
	speed   *speedometer
}

// churnLoop posts single-change batches for the window; the next change is
// sent only when the previous one is visible on the subscription. The
// reference kernel runs after every churnRefEvery changes, outside their clock.
func churnLoop(h *host, sub *subscription, gen *churn, tr *tracer, rep *report, window float64, k *refKernel) churnLoad {
	load := churnLoad{speed: &speedometer{k: k}}
	client := newClient()
	defer client.CloseIdleConnections()
	url := h.base + "/v1/relations/R/changes"
	start := time.Now()
	for time.Since(start).Seconds() < window {
		c := gen.next()
		line, _ := c.MarshalJSON() // plain numbers cannot fail to encode
		op := tr.newOp()
		root := tr.begin("server.change", -1, op)
		post := tr.begin("server.change_post", root, op)
		t0 := time.Now()
		lastSeq, err := postChange(client, url, string(line))
		posted := time.Now()
		tr.end(post)
		var mark checkpoint
		if err == nil {
			mark, err = sub.awaitMark(lastSeq)
		}
		tr.end(root)
		load.busy += time.Since(t0).Seconds()
		rep.op(err)
		if err != nil {
			break
		}
		load.changes = append(load.changes, changeSample{
			insert: c.Op == feed.OpInsert,
			post:   float64(posted.Sub(t0)) / 1e6, toMark: float64(mark.at.Sub(posted)) / 1e6,
			visibleDur: float64(mark.at.Sub(t0)) / 1e6,
		})
		if len(load.changes)%churnRefEvery == 0 {
			load.speed.tick()
		}
	}
	if len(load.speed.ms) == 0 {
		load.speed.tick()
	}
	return load
}

func postChange(client *http.Client, url, line string) (uint64, error) {
	resp, err := client.Post(url, "application/x-ndjson", strings.NewReader(line+"\n"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Applied int    `json:"applied"`
		LastSeq uint64 `json:"lastSeq"`
		Message string `json:"message"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("change response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || body.Applied != 1 {
		return 0, fmt.Errorf("change refused: status %d applied %d: %s", resp.StatusCode, body.Applied, body.Message)
	}
	return body.LastSeq, nil
}

// awaitMark waits for the checkpoint that covers seq.
func (s *subscription) awaitMark(seq uint64) (checkpoint, error) {
	for {
		select {
		case m := <-s.marks:
			if m.seq >= seq {
				return m, nil
			}
		case <-s.done:
			return checkpoint{}, fmt.Errorf("subscription ended while a change was in flight: %v", s.err)
		case <-time.After(30 * time.Second):
			return checkpoint{}, fmt.Errorf("change seq %d not visible after 30 s", seq)
		}
	}
}

// liveStart sets the service up and seeds the change generator.
func liveStart(w workload, cfg config, rep *report, k *refKernel) (*inputs, *host, *churn, error) {
	in, h, err := serveSetup(w, cfg, rep, k)
	if err != nil {
		return nil, nil, nil, err
	}
	gen, err := newChurn(w, cfg.seed, in)
	if err != nil {
		h.stop()
		return nil, nil, nil, err
	}
	return in, h, gen, nil
}

// snapshots opens subscriptions until the window has elapsed, sampling each
// snapshot and running the reference kernel after it; the last subscription
// opened is returned still open.
func snapshots(w workload, cfg config, h *host, rep *report, window float64, sp *speedometer) (*subscription, *opSeries) {
	series := &opSeries{rep: rep}
	client := newClient()
	var sub *subscription
	limited := cfg
	limited.seconds = window
	limited.loop(func() {
		if sub != nil {
			sub.abandon()
		}
		var (
			s   opSample
			err error
		)
		sub, s, err = subscribe(client, h.base, w.hotQuery())
		if len(series.total) == 0 {
			series.want = s.dig // every snapshot of the unchanged catalog must agree
		}
		series.add(s, err)
		sp.tick()
	})
	return sub, series
}

// checkLive demands that results minus retracts equals a fresh query over
// the final catalog.
func checkLive(rep *report, h *host, w workload, sub *subscription) {
	fresh, err := queryOnce(newClient(), h.base, w.hotQuery(), true)
	if err == nil {
		got := make([]progxe.Result, 0, len(sub.live))
		for k, out := range sub.live {
			got = append(got, progxe.Result{LeftID: k[0], RightID: k[1], Out: out})
		}
		err = sameSet("live set", got, fresh.kept)
	}
	rep.op(err)
}

// liveUntraced is the end-to-end pass of live_churn.
func liveUntraced(w workload, cfg config) *report {
	rep := newReport(w.name)
	k := newRefKernel()
	in, h, gen, err := liveStart(w, cfg, rep, k)
	if err != nil {
		rep.op(err)
		return rep
	}
	defer h.stop()
	sp := &speedometer{k: k}
	sub, series := snapshots(w, cfg, h, rep, cfg.seconds*snapshotShare, sp)
	series.setEndToEnd(sp.speed())
	if sub == nil {
		return rep
	}
	if rep.failed > 0 {
		sub.abandon()
		return rep
	}
	sub.follow()
	defer sub.close()
	load := churnLoop(h, sub, gen, nil, rep, cfg.seconds*churnShare, k)
	rep.setScaled("ops_per_s", float64(len(load.changes))/load.busy, load.speed.speed().inverse(), len(load.changes))
	rep.setResident(k)
	checkLive(rep, h, w, sub)
	runtime.KeepAlive(in)
	return rep
}

// countSink is the in-process stand-in for the subscription's stream writer.
type countSink struct{ results, retracts int }

func (c *countSink) Result(progxe.Result) { c.results++ }
func (c *countSink) Retract(int64, int64) { c.retracts++ }

// liveTraced is the per-layer pass of live_churn: a shorter change loop with
// spans, then LiveSpace build and apply in process beside a batch run of the
// same problem, then the layer cells.
func liveTraced(w workload, cfg config, tr *tracer) *report {
	rep := newReport(w.name)
	k := newRefKernel()
	in, h, gen, err := liveStart(w, cfg, rep, k)
	if err != nil {
		rep.op(err)
		return rep
	}
	defer h.stop()
	sub, snap, err := subscribe(newClient(), h.base, w.hotQuery())
	rep.op(err)
	if err != nil {
		return rep
	}
	rep.set("consumer.tt50_ms", snap.tt50, 1)
	rep.set("consumer.tt90_ms", snap.tt90, 1)
	sub.follow()
	hn := startHarness()
	load := churnLoop(h, sub, gen, tr, rep, cfg.seconds*churnShare, k)
	hn.finish(rep, len(load.changes), load.speed)
	checkLive(rep, h, w, sub)
	records := sub.records
	sub.close()

	n, anyChange := len(load.changes), every[changeSample]
	visible := func(c changeSample) float64 { return c.visibleDur }
	rep.set("server.change_visible_ms", median(column(load.changes, anyChange, visible)), n)
	rep.setNote("server.change_visible_p90_ms", percentile(column(load.changes, anyChange, visible), 90), n, tailNote(n, 90))
	rep.setNote("server.change_visible_p99_ms", percentile(column(load.changes, anyChange, visible), 99), n, tailNote(n, 99))
	rep.set("server.change_post_ms", median(column(load.changes, anyChange, func(c changeSample) float64 { return c.post })), n)
	rep.set("server.post_to_checkpoint_ms", median(column(load.changes, anyChange, func(c changeSample) float64 { return c.toMark })), n)
	if xs := column(load.changes, func(c changeSample) bool { return c.insert }, visible); len(xs) > 0 {
		rep.set("server.insert_visible_ms", median(xs), len(xs))
	}
	if xs := column(load.changes, func(c changeSample) bool { return !c.insert }, visible); len(xs) > 0 {
		rep.set("server.delete_visible_ms", median(xs), len(xs))
	}
	if n > 0 {
		rep.setRatio("server.records_per_change", ratio{float64(records), float64(n), "records/changes"}, n)
	}

	buildMs := liveCells(rep, tr, w, cfg, in)

	// A batch run of the same problem: the base of live.build_vs_batch and
	// the source of the core metrics on this workload's data.
	var traced []tracedSample
	batch := cfg
	batch.seconds = cfg.seconds * snapshotShare / 2
	batch.loop(func() {
		ts, err := tracedOp(tr, progxe.Options{}, in.problem, 0)
		rep.op(err)
		if err == nil {
			traced = append(traced, ts)
		}
	})
	setCoreMetrics(rep, traced, false)
	if len(traced) > 0 && buildMs > 0 {
		rep.setRatio("live.build_vs_batch", ratio{buildMs, median(totalsOf(traced)), "ms"}, len(traced))
	}
	layerCells(rep, tr, w, in, cfg)
	return rep
}

// liveCells builds the LiveSpace in process and folds a fixed number of the
// workload's changes into it, timing every apply. It returns the build time.
func liveCells(rep *report, tr *tracer, w workload, cfg config, in *inputs) float64 {
	runtime.GC()
	id := tr.begin("live.build", -1, tr.newOp())
	start := time.Now()
	space, err := core.NewLiveSpace(in.problem)
	buildMs := msSince(start)
	tr.end(id)
	if err != nil {
		rep.op(fmt.Errorf("core.NewLiveSpace: %w", err))
		return 0
	}
	rep.set("live.build_ms", buildMs, 1)

	gen, err := newChurn(w, cfg.seed, in)
	if err != nil {
		rep.op(err)
		return buildMs
	}
	count := applyChanges
	if cfg.quick {
		count /= quickDivisor
	}
	var (
		sink             countSink
		inserts, deletes []float64
	)
	before := space.Stats()
	for i := 0; i < count; i++ {
		c := gen.next()
		start := time.Now()
		if c.Op == feed.OpInsert {
			err = space.ApplyInsert(mapping.Left, progxe.Tuple{ID: c.ID, Vals: c.Vals, JoinKey: c.JoinKey}, &sink)
			inserts = append(inserts, float64(time.Since(start))/1e3)
		} else {
			err = space.ApplyDelete(mapping.Left, c.ID, &sink)
			deletes = append(deletes, float64(time.Since(start))/1e3)
		}
		if err != nil {
			rep.op(fmt.Errorf("applying change %d in process: %w", i, err))
			return buildMs
		}
	}
	after := space.Stats()
	rep.set("live.insert_apply_us", median(inserts), len(inserts))
	rep.setNote("live.insert_apply_p90_us", percentile(inserts, 90), len(inserts), tailNote(len(inserts), 90))
	rep.set("live.delete_apply_us", median(deletes), len(deletes))
	rep.setNote("live.delete_apply_p90_us", percentile(deletes, 90), len(deletes), tailNote(len(deletes), 90))
	rep.set("live.comparisons", float64(after.Comparisons-before.Comparisons), count)
	rep.set("live.results", float64(after.Results-before.Results), count)
	rep.set("live.retractions", float64(after.Retractions-before.Retractions), count)
	return buildMs
}
