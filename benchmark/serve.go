package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"progxe"
	"progxe/internal/server"
)

// host is an in-process progressive query service on a loopback listener —
// real sockets, real NDJSON framing, the serve binary's configuration.
type host struct {
	srv  *progxe.Server
	hs   *http.Server
	done chan struct{}
	base string
}

// startHost starts the service with coalescing at the serve binary's
// default and the default plan cache, and registers the workload's relations.
func startHost(in *inputs) (*host, error) {
	srv := progxe.NewServer(progxe.ServerConfig{CoalesceReplay: server.DefaultCoalesceReplay})
	for _, rel := range []*progxe.Relation{in.r, in.t} {
		if err := srv.Catalog().Register(rel); err != nil {
			return nil, fmt.Errorf("registering %s: %w", rel.Schema.Name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return h, nil
}

// stop aborts in-flight runs, closes every connection and waits for the
// serve goroutine to return.
func (h *host) stop() {
	h.srv.CancelRuns()
	_ = h.hs.Close()
	<-h.done
}

// newClient returns a keep-alive HTTP client holding one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// wireRecord is the union of the stream records the benchmark reads: run,
// result, retract, checkpoint, stats and error.
type wireRecord struct {
	Type       string    `json:"type"`
	Seq        uint64    `json:"seq"`
	LeftID     int64     `json:"leftId"`
	RightID    int64     `json:"rightId"`
	Out        []float64 `json:"out"`
	Results    int       `json:"results"`
	TTFRMillis float64   `json:"ttfrMillis"`
	Cached     bool      `json:"cached"`
	Canceled   bool      `json:"canceled"`
	Error      string    `json:"error"`
	Code       string    `json:"code"`
	Message    string    `json:"message"`
}

// postStream posts a JSON body and returns the NDJSON response stream.
func postStream(ctx context.Context, client *http.Client, url string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(b)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return sc
}

// reqSample is what the client of one /v1/query request observed.
type reqSample struct {
	opSample
	hot     bool // the hot query, as opposed to a never-seen one
	trailer wireRecord
	kept    []progxe.Result // the answer itself, when asked for
}

// queryOnce posts one query and consumes its stream as a decision-support
// client would: every record is parsed as it arrives, and the request ends
// when the stats trailer has been read. With keep the answer is retained.
func queryOnce(client *http.Client, base, sql string, keep bool) (reqSample, error) {
	var out reqSample
	sink := &timeSink{dig: newDigest(), start: time.Now()}
	resp, err := postStream(context.Background(), client, base+"/v1/query", map[string]string{"query": sql})
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	sc := newScanner(resp.Body)
	sawStats := false
	for sc.Scan() {
		var rec wireRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return out, fmt.Errorf("bad stream line: %w", err)
		}
		switch rec.Type {
		case "result":
			r := progxe.Result{LeftID: rec.LeftID, RightID: rec.RightID, Out: rec.Out}
			sink.Emit(r)
			if keep {
				out.kept = append(out.kept, r)
			}
		case "error":
			return out, fmt.Errorf("error record %s: %s", rec.Code, rec.Message)
		case "stats":
			sawStats, out.trailer = true, rec
		}
	}
	total := msSince(sink.start)
	if err := sc.Err(); err != nil {
		return out, err
	}
	switch {
	case !sawStats:
		return out, fmt.Errorf("stream truncated: no stats trailer")
	case out.trailer.Error != "" || out.trailer.Canceled:
		return out, fmt.Errorf("run ended badly: error=%q canceled=%v", out.trailer.Error, out.trailer.Canceled)
	case out.trailer.Results != len(sink.at):
		return out, fmt.Errorf("trailer reports %d results, stream carried %d", out.trailer.Results, len(sink.at))
	}
	out.opSample, err = sink.sample(total)
	return out, err
}

// The request mix: of every mixCycle requests a client sends, mixHot are the
// hot query and the rest are queries the server has never seen. Hits and
// misses reach their first result some 20 and 50 ms in, so the median of an
// even mix would sit on the edge between the two modes and jump from run to
// run; at 8 in 10 it lies well inside the hit mode and the 90th percentile inside
// the miss mode. The order within each cycle is seeded, the composition is
// not, so no run draws a luckier mix than another.
const (
	mixCycle = 10
	mixHot   = 8
)

// requestStream is one client's seeded sequence of queries. Miss weights are
// drawn from disjoint per-client residue classes, so no two requests of a run
// ever share a cold query.
type requestStream struct {
	rng     *rand.Rand
	dims    int
	client  int
	clients int
	cycle   []int // a permutation of 0..mixCycle-1; entries below mixHot are hot
	sent    int
	used    map[int]bool
}

func newRequestStream(seed uint64, dims, client, clients int) *requestStream {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	return &requestStream{
		rng: rng, dims: dims, client: client, clients: clients,
		cycle: rng.Perm(mixCycle), used: map[int]bool{},
	}
}

// next returns the next query and whether it is the hot one.
func (s *requestStream) next() (sql string, hot bool) {
	if s.sent%mixCycle == 0 {
		// A fresh order for every cycle, so that two clients do not keep
		// meeting at the same slots for a whole run.
		s.rng.Shuffle(mixCycle, func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	}
	slot := s.cycle[s.sent%mixCycle]
	s.sent++
	if slot < mixHot {
		return sumQuery(s.dims, 1), true
	}
	for {
		// Weights in (1, 2); the residue class of k is the client.
		k := s.rng.IntN(1000000/s.clients)*s.clients + s.client
		if !s.used[k] {
			s.used[k] = true
			return sumQuery(s.dims, 1+float64(k+1)/1000001), false
		}
	}
}

// serveSetup sets the service up setupRounds times — generate the inputs,
// start the server, register the relations, answer one warming hot request —
// and records the median as setup_s, at reference speed; the kernel runs
// after every round. The last service started is returned running.
func serveSetup(w workload, cfg config, rep *report, k *refKernel) (*inputs, *host, error) {
	var (
		in    *inputs
		h     *host
		err   error
		setup []float64
	)
	sp := &speedometer{k: k}
	for i := 0; i < setupRounds; i++ {
		if h != nil {
			h.stop()
		}
		start := time.Now()
		if in, err = w.generate(cfg.seed); err != nil {
			return nil, nil, err
		}
		if h, err = startHost(in); err != nil {
			return nil, nil, err
		}
		if _, err := queryOnce(newClient(), h.base, w.hotQuery(), false); err != nil {
			h.stop()
			return nil, nil, fmt.Errorf("warming request: %w", err)
		}
		setup = append(setup, msSince(start))
		sp.tick()
	}
	rep.setScaled("setup_s", median(setup)/1000, sp.speed(), setupRounds)
	return in, h, nil
}

// serveLoad is what the closed loop observed.
type serveLoad struct {
	samples []reqSample
	busy    float64      // seconds the clients spent inside requests, summed over clients
	speed   *speedometer // the kernel runs of every client
}

// closedLoop runs cfg.clients keep-alive clients for the window; each sends
// its next request only when the previous answer is complete, as a
// decision-support session refining its query does, and runs the reference
// kernel between two requests — the session's think time.
func closedLoop(w workload, cfg config, h *host, tr *tracer, rep *report, window float64) serveLoad {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		load = serveLoad{speed: &speedometer{}}
	)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			stream := newRequestStream(cfg.seed, w.dims, c, cfg.clients)
			sp := newSpeedometer()
			for time.Since(start).Seconds() < window {
				sql, hot := stream.next()
				id := tr.begin("server.request", -1, tr.newOp())
				s, err := queryOnce(client, h.base, sql, false)
				tr.end(id)
				s.hot = hot
				mu.Lock()
				rep.op(err)
				if err == nil {
					load.samples = append(load.samples, s)
					load.busy += s.total / 1000
				}
				mu.Unlock()
				sp.tick()
			}
			mu.Lock()
			load.speed.join(sp)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return load
}

// throughput is completed requests per second of a client's time inside
// requests, times the clients: what the closed loop delivers while none of
// its clients is thinking.
func (l serveLoad) throughput(clients int) float64 {
	return float64(len(l.samples)) / (l.busy / float64(clients))
}

// checkHot verifies that every hot-query stream equals an in-process run of
// the same compiled query, and that the plan cache answered as designed.
func (l serveLoad) checkHot(rep *report, want digest) {
	for _, s := range l.samples {
		switch {
		case s.hot && s.dig != want:
			rep.op(fmt.Errorf("hot stream digest %x differs from the in-process run's %x", s.dig, want))
		case s.hot && !s.trailer.Cached:
			rep.op(fmt.Errorf("hot request missed the plan cache"))
		case !s.hot && s.trailer.Cached:
			rep.op(fmt.Errorf("never-seen query hit the plan cache"))
		}
	}
}

// column extracts f from the samples keep accepts.
func column[T any](samples []T, keep func(T) bool, f func(T) float64) []float64 {
	var xs []float64
	for _, s := range samples {
		if keep(s) {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func every[T any](T) bool { return true }

// serveUntraced is the end-to-end pass of serve_mix. resident_mb is read
// with the service warm and the hot plan cached, before the request stream:
// what the stream itself leaves behind (a cached plan per never-seen query)
// depends on how many requests the window happened to complete, and is
// reported by the traced pass as server.resident_growth_mb.
func serveUntraced(w workload, cfg config) *report {
	rep := newReport(w.name)
	k := newRefKernel()
	in, h, err := serveSetup(w, cfg, rep, k)
	if err != nil {
		rep.op(err)
		return rep
	}
	defer h.stop()
	rep.setResident(k)
	load := closedLoop(w, cfg, h, nil, rep, cfg.seconds)
	speed := load.speed.speed()
	load.series(rep).setEndToEnd(speed)
	rep.setScaled("ops_per_s", load.throughput(cfg.clients), speed.inverse(), len(load.samples))
	load.checkHot(rep, referenceDigest(rep, in))
	runtime.KeepAlive(in)
	return rep
}

// series folds the hot requests into the shape engine loops report in. The
// never-seen queries are left out of the progressiveness medians: a fifth of
// the mix, they never decided a median, but with them in it the median of the
// mix is the 62nd percentile of the hot requests — the knee where requests
// that met the other client's run begin (ten seeds: 9.5–12.3 ms, against
// 9.0–9.6 ms for the median of the hot requests alone). They count in
// ops_per_s, and server.ttfr_miss_ms reports them on their own.
func (l serveLoad) series(rep *report) *opSeries {
	o := &opSeries{rep: rep}
	for _, s := range l.samples {
		if !s.hot {
			continue
		}
		o.ttfr, o.tt50 = append(o.ttfr, s.ttfr), append(o.tt50, s.tt50)
		o.tt90, o.total = append(o.tt90, s.tt90), append(o.total, s.total)
	}
	return o
}

// referenceDigest runs the hot query in process and returns its stream
// digest, after checking the answer itself.
func referenceDigest(rep *report, in *inputs) digest {
	var ref progxe.Collector
	_, err := progxe.RunContext(context.Background(), progxe.New(progxe.Options{}), in.problem, &ref)
	if err == nil {
		err = checkAnswer(in.problem, ref.Results)
	}
	rep.op(err)
	return digestOf(ref.Results)
}

// serveTraced is the per-layer pass of serve_mix: a shorter closed loop with
// a span per request, then the hot query in process and the layer cells.
func serveTraced(w workload, cfg config, tr *tracer) *report {
	rep := newReport(w.name)
	k := newRefKernel()
	in, h, err := serveSetup(w, cfg, rep, k)
	if err != nil {
		rep.op(err)
		return rep
	}
	defer h.stop()

	resident := residentMB()
	hn := startHarness()
	before := h.srv.Stats()
	load := closedLoop(w, cfg, h, tr, rep, cfg.seconds/2)
	after := h.srv.Stats()
	hn.finish(rep, len(load.samples), load.speed)
	rep.set("server.resident_growth_mb", residentMB()-resident, 1)
	load.checkHot(rep, referenceDigest(rep, in))
	load.series(rep).setConsumer()

	isHot := func(s reqSample) bool { return s.hot }
	isMiss := func(s reqSample) bool { return !s.hot }
	ttfr := func(s reqSample) float64 { return s.ttfr }
	total := func(s reqSample) float64 { return s.total }
	all, n := every[reqSample], len(load.samples)
	hits, misses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	rep.setRatio("server.plan_hit_ratio", ratio{float64(hits), float64(hits + misses), "lookups"}, int(hits+misses))
	if xs := column(load.samples, isHot, ttfr); len(xs) > 0 {
		rep.set("server.ttfr_hit_ms", median(xs), len(xs))
	}
	if xs := column(load.samples, isMiss, ttfr); len(xs) > 0 {
		rep.set("server.ttfr_miss_ms", median(xs), len(xs))
	}
	rep.setNote("server.ttfr_p90_ms", percentile(column(load.samples, all, ttfr), 90), n, tailNote(n, 90))
	rep.setNote("server.total_p90_ms", percentile(column(load.samples, all, total), 90), n, tailNote(n, 90))
	rep.set("server.ttfr_overhead_ms", median(column(load.samples, all, func(s reqSample) float64 { return s.ttfr - s.trailer.TTFRMillis })), n)
	records := 0
	for _, s := range load.samples {
		records += s.results
	}
	rep.set("server.records_per_s", float64(records)/(load.busy/float64(cfg.clients)), records)
	rep.set("server.coalesced_runs", float64(after.CoalescedRuns-before.CoalescedRuns), 1)
	rep.set("server.rejected", float64(after.RunsRejected-before.RunsRejected), 1)

	// The hot query in process, prepared once as the plan cache holds it and
	// run with a sink that does nothing: what a hot request would cost
	// without HTTP, encoding and flushing.
	var traced []tracedSample
	var bare []float64
	rest := cfg
	rest.seconds = cfg.seconds / 2
	rest.loop(func() {
		ts, err := tracedOp(tr, progxe.Options{}, in.problem, 0)
		rep.op(err)
		if err == nil {
			traced = append(traced, ts)
		}
		if ms, err := bareRun(in.problem); err != nil {
			rep.op(err)
		} else {
			bare = append(bare, ms)
		}
	})
	setCoreMetrics(rep, traced, false)
	if hot := column(load.samples, isHot, total); len(hot) > 0 && len(bare) > 0 {
		rep.setNote("server.stream_overhead_ms", median(hot)-median(bare), len(hot),
			fmt.Sprintf("= %.6g − %.6g ms", median(hot), median(bare)))
	}
	layerCells(rep, tr, w, in, cfg)
	return rep
}

// bareRun times RunPreparedContext of a prepared plan with a no-op sink.
func bareRun(p *progxe.Problem) (float64, error) {
	e := progxe.New(progxe.Options{})
	ctx := context.Background()
	pl, ok, err := progxe.PrepareContext(ctx, e, p)
	if err != nil || !ok {
		return 0, fmt.Errorf("preparing the hot plan: ok=%v err=%v", ok, err)
	}
	runtime.GC()
	start := time.Now()
	_, err = progxe.RunPreparedContext(ctx, e, pl, progxe.SinkFunc(func(progxe.Result) {}))
	return msSince(start), err
}
