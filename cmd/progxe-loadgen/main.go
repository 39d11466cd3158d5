// Command progxe-loadgen load-tests the progressive query service: it
// drives mixed query traffic (a hot query plus a pool of cold variants)
// against a running server — or a self-hosted one — and reports the serving
// metrics the plan cache and run coalescing exist to move: client-observed
// time-to-first-result quantiles, sustained throughput, plan-cache hit
// rate, and coalescing fan-out.
//
// Two modes:
//
//   - Open-loop mix (default): requests arrive at -rate for -duration,
//     drawn from -queries variants with probability -hot of picking the hot
//     one. Arrivals do not wait for completions (open loop), so server
//     slowdowns surface as latency, not as a politely reduced request rate.
//
//   - Burst (-burst N): N concurrent identical requests released at one
//     barrier against a warm cache — the coalescing worst case. With
//     -check-identical the harness verifies every subscriber read a
//     byte-identical stream; -gate-runs asserts how many engine runs the
//     burst was allowed to cost.
//
// Threshold flags (-gate-*) turn measurements into exit codes for CI.
//
// Examples:
//
//	progxe-loadgen -rows 2000 -rate 200 -duration 5s
//	progxe-loadgen -burst 128 -check-identical -gate-runs 1 -gate-hit-rate 0.95 -gate-p99 500ms
//	progxe-loadgen -addr localhost:8080 -rate 50 -duration 10s -json load.json
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"progxe/internal/datagen"
	"progxe/internal/obs"
	"progxe/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progxe-loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	addr     string
	rows     int
	dims     int
	seed     int64
	queries  int
	hot      float64
	rate     float64
	duration time.Duration
	burst    int
	warmup   bool
	timeout  time.Duration

	gateHitRate    float64
	gateP99        time.Duration
	gateRuns       int
	gateFanout     float64
	checkIdentical bool
	checkPhases    bool

	jsonPath    string
	summaryPath string
}

func run(args []string) error {
	fs := flag.NewFlagSet("progxe-loadgen", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "", "target an existing server (host:port); empty self-hosts one in-process")
	fs.IntVar(&cfg.rows, "rows", 2000, "rows per relation when self-hosting")
	fs.IntVar(&cfg.dims, "dims", 3, "dimensions per relation when self-hosting (≥ 2; feeds the query-variant pool)")
	fs.Int64Var(&cfg.seed, "seed", 42, "workload seed when self-hosting")
	fs.IntVar(&cfg.queries, "queries", 8, "distinct query variants in the mix (1 hot + N-1 cold)")
	fs.Float64Var(&cfg.hot, "hot", 0.9, "probability a request draws the hot query")
	fs.Float64Var(&cfg.rate, "rate", 200, "open-loop arrival rate, requests/second")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured window of the open-loop mix")
	fs.IntVar(&cfg.burst, "burst", 0, "burst mode: this many concurrent identical requests at one barrier (0 = open-loop mix)")
	fs.BoolVar(&cfg.warmup, "warmup", true, "run each variant once before measuring (warm plan cache)")
	fs.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "per-request client timeout")
	fs.Float64Var(&cfg.gateHitRate, "gate-hit-rate", 0, "fail unless plan-cache hit rate over the window ≥ this (0 = off)")
	fs.DurationVar(&cfg.gateP99, "gate-p99", 0, "fail unless p99 TTFR ≤ this (0 = off)")
	fs.IntVar(&cfg.gateRuns, "gate-runs", -1, "fail unless the window cost exactly this many engine runs (-1 = off)")
	fs.Float64Var(&cfg.gateFanout, "gate-fanout", 0, "fail unless mean subscribers per coalesced run ≥ this (0 = off)")
	fs.BoolVar(&cfg.checkIdentical, "check-identical", false, "burst mode: fail unless all successful streams are byte-identical")
	fs.BoolVar(&cfg.checkPhases, "check-phases", false, "fail unless cache-hit runs report ≈0 ms in partition/region-build/prune")
	fs.StringVar(&cfg.jsonPath, "json", "", "write a bench JSON report with the serve-path metrics to this file")
	fs.StringVar(&cfg.summaryPath, "summary", "", "append a markdown summary table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.dims < 2 {
		return fmt.Errorf("-dims must be ≥ 2, got %d", cfg.dims)
	}
	if cfg.queries < 1 {
		return fmt.Errorf("-queries must be ≥ 1, got %d", cfg.queries)
	}

	base := cfg.addr
	if base == "" {
		srv, ln, err := selfHost(cfg)
		if err != nil {
			return err
		}
		defer srv.CancelRuns()
		defer ln.Close()
		base = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "progxe-loadgen: self-hosting on %s (%d rows × %d dims, seed %d)\n",
			base, cfg.rows, cfg.dims, cfg.seed)
	}
	baseURL := "http://" + base

	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}

	variants, err := queryVariants(client, baseURL, cfg.queries)
	if err != nil {
		return err
	}
	if cfg.warmup {
		for i, q := range variants {
			if res := fire(client, baseURL, q); res.err != nil {
				return fmt.Errorf("warmup query %d: %w", i, res.err)
			}
		}
	}

	before, err := fetchStats(client, baseURL)
	if err != nil {
		return err
	}
	var results []reqResult
	var window time.Duration
	if cfg.burst > 0 {
		results, window = burstMode(client, baseURL, variants[0], cfg.burst)
	} else {
		results, window = openLoop(client, baseURL, variants, cfg)
	}
	after, err := fetchStats(client, baseURL)
	if err != nil {
		return err
	}

	return report(cfg, results, window, before, after)
}

// selfHost starts an in-process service with a generated workload, in the
// configuration the serve binary defaults to.
func selfHost(cfg config) (*server.Server, net.Listener, error) {
	srv := server.New(server.Config{})
	r, t, err := datagen.GeneratePair(datagen.Spec{
		N: cfg.rows, Dims: cfg.dims, Distribution: datagen.AntiCorrelated,
		Selectivity: 0.01, Seed: uint64(cfg.seed),
	})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Catalog().Register(r); err != nil {
		return nil, nil, err
	}
	if err := srv.Catalog().Register(t); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = http.Serve(ln, srv) }()
	return srv, ln, nil
}

// queryVariants builds n distinct PREFERRING queries over the first two
// catalog relations by rotating which attribute pair each output dimension
// sums — every variant compiles to a genuinely different plan. Variant 0 is
// the hot query.
func queryVariants(client *http.Client, baseURL string, n int) ([]string, error) {
	resp, err := client.Get(baseURL + "/v1/relations")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var listing struct {
		Relations []struct {
			Name  string   `json:"name"`
			Attrs []string `json:"attrs"`
		} `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("listing relations: %w", err)
	}
	if len(listing.Relations) < 2 {
		return nil, fmt.Errorf("need ≥ 2 catalog relations, got %d (self-host or preload the target)", len(listing.Relations))
	}
	l, r := listing.Relations[0], listing.Relations[1]
	if len(l.Attrs) < 2 || len(r.Attrs) < 2 {
		return nil, fmt.Errorf("relations %s/%s need ≥ 2 attributes for the variant pool", l.Name, r.Name)
	}
	variants := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ax := l.Attrs[i%len(l.Attrs)]
		bx := r.Attrs[(i/len(l.Attrs))%len(r.Attrs)]
		ay := l.Attrs[(i+1)%len(l.Attrs)]
		by := r.Attrs[(i/len(l.Attrs)+1)%len(r.Attrs)]
		variants = append(variants, fmt.Sprintf(
			"SELECT (%[1]s.%[3]s + %[2]s.%[4]s) AS x, (%[1]s.%[5]s + %[2]s.%[6]s) AS y FROM %[1]s %[1]s, %[2]s %[2]s WHERE %[1]s.jkey = %[2]s.jkey PREFERRING LOWEST(x) AND LOWEST(y)",
			l.Name, r.Name, ax, bx, ay, by))
	}
	return variants, nil
}

// reqResult is one measured request.
type reqResult struct {
	status      int
	ttfr        time.Duration // -1 when no result arrived
	total       time.Duration
	results     int
	cached      bool
	subscribers int
	setupMS     float64
	hash        [sha256.Size]byte
	err         error
}

// fire posts one query and consumes its stream, timing the first result
// record as it crosses the client boundary.
func fire(client *http.Client, baseURL, query string) reqResult {
	res := reqResult{ttfr: -1}
	body, _ := json.Marshal(map[string]string{"query": query})
	start := time.Now()
	resp, err := client.Post(baseURL+"/v1/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return res
	}
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(resp.Body, h))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Type        string     `json:"type"`
			Cached      bool       `json:"cached"`
			Subscribers int        `json:"subscribers"`
			Results     int        `json:"results"`
			Error       string     `json:"error"`   // stats-record run error
			Message     string     `json:"message"` // structured in-stream error records
			Phases      obs.Report `json:"phases"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			res.err = fmt.Errorf("bad stream line: %w", err)
			return res
		}
		switch rec.Type {
		case "result":
			if res.ttfr < 0 {
				res.ttfr = time.Since(start)
			}
			res.results++
		case "error":
			res.err = fmt.Errorf("stream error: %s", rec.Message)
			return res
		case "stats":
			res.cached = rec.Cached
			res.subscribers = rec.Subscribers
			for _, ph := range rec.Phases.Phases {
				switch ph.Phase {
				case "partition", "region-build", "prune":
					res.setupMS += ph.SequencerMillis + ph.WorkerMillis
				}
			}
			if rec.Error != "" {
				res.err = fmt.Errorf("run error: %s", rec.Error)
			}
		}
	}
	if err := sc.Err(); err != nil && res.err == nil {
		res.err = err
	}
	res.total = time.Since(start)
	h.Sum(res.hash[:0])
	return res
}

// burstMode releases n identical requests at one barrier. Every worker
// pre-establishes a keep-alive connection (a /healthz round-trip held open
// until all workers are connected) before the barrier drops, so the burst
// measures coalescing under genuinely simultaneous arrivals rather than the
// TCP dial ramp.
func burstMode(client *http.Client, baseURL, query string, n int) ([]reqResult, time.Duration) {
	results := make([]reqResult, n)
	barrier := make(chan struct{})
	var connected sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		connected.Add(1)
		go func(i int) {
			defer wg.Done()
			// Open (and keep pooled) a dedicated connection: the response
			// body is not drained until every worker has connected, which
			// pins one live conn per worker instead of letting early
			// workers share a handful of pooled ones.
			resp, err := client.Get(baseURL + "/healthz")
			if err == nil {
				connected.Done()
				connected.Wait()
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			} else {
				connected.Done()
			}
			<-barrier
			results[i] = fire(client, baseURL, query)
		}(i)
	}
	connected.Wait()
	start := time.Now()
	close(barrier)
	wg.Wait()
	return results, time.Since(start)
}

// openLoop fires the mixed query traffic at the configured arrival rate,
// not waiting for completions.
func openLoop(client *http.Client, baseURL string, variants []string, cfg config) ([]reqResult, time.Duration) {
	rng := rand.New(rand.NewSource(cfg.seed))
	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		mu      sync.Mutex
		results []reqResult
		wg      sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-tick.C:
			q := variants[0]
			if rng.Float64() >= cfg.hot && len(variants) > 1 {
				q = variants[1+rng.Intn(len(variants)-1)]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := fire(client, baseURL, q)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return results, time.Since(start)
}

func fetchStats(client *http.Client, baseURL string) (server.Snapshot, error) {
	var s server.Snapshot
	resp, err := client.Get(baseURL + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("parsing /v1/stats: %w", err)
	}
	return s, nil
}

// quantile returns the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func report(cfg config, results []reqResult, window time.Duration, before, after server.Snapshot) error {
	var (
		ok, failed int
		ttfrs      []time.Duration
		cachedRuns int
		maxSetupMS float64
		firstErr   error
	)
	hashes := map[[sha256.Size]byte]int{}
	for _, r := range results {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		ok++
		if r.ttfr >= 0 {
			ttfrs = append(ttfrs, r.ttfr)
		}
		if r.cached {
			cachedRuns++
			if r.setupMS > maxSetupMS {
				maxSetupMS = r.setupMS
			}
		}
		hashes[r.hash]++
	}
	sort.Slice(ttfrs, func(i, j int) bool { return ttfrs[i] < ttfrs[j] })
	p50, p99 := quantile(ttfrs, 0.50), quantile(ttfrs, 0.99)

	hits := after.PlanCacheHits - before.PlanCacheHits
	misses := after.PlanCacheMisses - before.PlanCacheMisses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	runs := after.RunsStarted - before.RunsStarted
	coalRuns := after.CoalescedRuns - before.CoalescedRuns
	coalSubs := after.CoalescedSubscribers - before.CoalescedSubscribers
	fanout := 0.0
	if coalRuns > 0 {
		fanout = float64(coalSubs) / float64(coalRuns)
	}
	throughput := 0.0
	if window > 0 {
		throughput = float64(ok) / window.Seconds()
	}

	mode := fmt.Sprintf("open-loop %.0f req/s × %s (%d variants, %.0f%% hot)", cfg.rate, cfg.duration, cfg.queries, cfg.hot*100)
	if cfg.burst > 0 {
		mode = fmt.Sprintf("burst of %d identical requests", cfg.burst)
	}
	fmt.Printf("mode:          %s\n", mode)
	fmt.Printf("requests:      %d ok, %d failed (window %.2fs)\n", ok, failed, window.Seconds())
	fmt.Printf("throughput:    %.1f completed/s\n", throughput)
	fmt.Printf("ttfr:          p50 %.2fms  p99 %.2fms  (%d measured)\n",
		ms(p50), ms(p99), len(ttfrs))
	fmt.Printf("plan cache:    %d hits / %d misses (hit rate %.1f%%), %d cached streams\n", hits, misses, hitRate*100, cachedRuns)
	fmt.Printf("engine runs:   %d started, %d coalesced, fan-out %.1f subscribers/run\n", runs, coalRuns, fanout)
	fmt.Printf("truncations:   %d\n", after.ReplayTruncated-before.ReplayTruncated)

	if cfg.jsonPath != "" {
		if err := writeJSON(cfg, p50, p99, throughput, hitRate, fanout); err != nil {
			return err
		}
	}
	if cfg.summaryPath != "" {
		if err := writeSummary(cfg, mode, ok, failed, p50, p99, throughput, hitRate, runs, fanout); err != nil {
			return err
		}
	}

	// Gates: measurements become exit codes.
	var violations []string
	if failed > 0 {
		violations = append(violations, fmt.Sprintf("%d requests failed (first: %v)", failed, firstErr))
	}
	if cfg.gateHitRate > 0 && hitRate < cfg.gateHitRate {
		violations = append(violations, fmt.Sprintf("hit rate %.3f < gate %.3f", hitRate, cfg.gateHitRate))
	}
	if cfg.gateP99 > 0 && p99 > cfg.gateP99 {
		violations = append(violations, fmt.Sprintf("p99 TTFR %s > gate %s", p99, cfg.gateP99))
	}
	if cfg.gateRuns >= 0 && runs != int64(cfg.gateRuns) {
		violations = append(violations, fmt.Sprintf("%d engine runs, gate wants exactly %d", runs, cfg.gateRuns))
	}
	if cfg.gateFanout > 0 && fanout < cfg.gateFanout {
		violations = append(violations, fmt.Sprintf("fan-out %.1f < gate %.1f", fanout, cfg.gateFanout))
	}
	if cfg.checkIdentical && cfg.burst > 0 && ok > 0 && len(hashes) != 1 {
		violations = append(violations, fmt.Sprintf("%d distinct stream bodies across %d successful subscribers, want 1", len(hashes), ok))
	}
	if cfg.checkPhases {
		if cachedRuns == 0 {
			violations = append(violations, "no cached runs observed, cannot check setup phases")
		} else if maxSetupMS > 0.05 {
			violations = append(violations, fmt.Sprintf("cache-hit run spent %.3f ms in partition/region-build/prune, want ≈0", maxSetupMS))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("gate violations:\n  - %s", strings.Join(violations, "\n  - "))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// loadReport is the -json document. It keeps the layout and key names of
// the figure report progxe-bench -json writes, so one reader parses both:
// a single "serve-load" figure holding one run. The engine-side keys a
// figure run fills (sigma, total_ms, first_ms, results, dom_comparisons,
// join_results) are always present and zero here.
type loadReport struct {
	Scale      float64      `json:"scale"` // always 1: -rows sizes the workload
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	Figures    []loadFigure `json:"figures"`
}

type loadFigure struct {
	Figure  string    `json:"figure"`
	Caption string    `json:"caption"`
	Kind    string    `json:"kind"`
	Runs    []loadRun `json:"runs"`
}

// loadRun is the one run of a loadReport: the workload, then the
// client-observed time-to-first-result quantiles, sustained
// completed-request throughput, the plan-cache hit rate over the measured
// window, and the mean subscriber fan-out per coalesced engine run.
type loadRun struct {
	Engine         string  `json:"engine"`
	N              int     `json:"n"`
	Dims           int     `json:"dims"`
	Dist           string  `json:"dist"`
	Sigma          float64 `json:"sigma"`
	TotalMS        float64 `json:"total_ms"`
	FirstMS        float64 `json:"first_ms"`
	Results        int     `json:"results"`
	DomComparisons int     `json:"dom_comparisons"`
	JoinResults    int     `json:"join_results"`
	ServeTTFRP50MS float64 `json:"serve_ttfr_p50_ms,omitempty"`
	ServeTTFRP99MS float64 `json:"serve_ttfr_p99_ms,omitempty"`
	ThroughputRPS  float64 `json:"throughput_rps,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	CoalesceFanout float64 `json:"coalesce_fanout,omitempty"`
}

func writeJSON(cfg config, p50, p99 time.Duration, throughput, hitRate, fanout float64) error {
	kind := "serve-mix"
	if cfg.burst > 0 {
		kind = "serve-burst"
	}
	rep := loadReport{Scale: 1, GoMaxProcs: runtime.GOMAXPROCS(0), Figures: []loadFigure{{
		Figure:  "serve-load",
		Caption: "Serve-path load test (plan cache + run coalescing)",
		Kind:    kind,
		Runs: []loadRun{{
			Engine: "progxe", N: cfg.rows, Dims: cfg.dims, Dist: "anti-correlated",
			ServeTTFRP50MS: ms(p50), ServeTTFRP99MS: ms(p99),
			ThroughputRPS: throughput, CacheHitRate: hitRate, CoalesceFanout: fanout,
		}},
	}}}
	f, err := os.Create(cfg.jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func writeSummary(cfg config, mode string, ok, failed int, p50, p99 time.Duration, throughput, hitRate float64, runs int64, fanout float64) error {
	f, err := os.OpenFile(cfg.summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "### Serve-path load test\n\n%s\n\n", mode)
	fmt.Fprintf(f, "| ok | failed | p50 TTFR | p99 TTFR | throughput | hit rate | engine runs | fan-out |\n")
	fmt.Fprintf(f, "|---|---|---|---|---|---|---|---|\n")
	fmt.Fprintf(f, "| %d | %d | %.2f ms | %.2f ms | %.1f/s | %.1f%% | %d | %.1f |\n\n",
		ok, failed, ms(p50), ms(p99), throughput, hitRate*100, runs, fanout)
	return nil
}
