// Package server is the progressive query service: an HTTP subsystem that
// turns the ProgXe library into a network-facing system while preserving its
// defining property — skyline-over-join results are streamed to the client
// the moment the engine proves them final, not when the run completes.
//
// The service holds a concurrency-safe relation catalog (populated from
// synthetic-data specs or CSV uploads), accepts queries in the paper's
// PREFERRING dialect, and streams results as NDJSON or Server-Sent Events
// with a trailing stats record. Engine runs are admission-controlled, shared
// by concurrent identical requests, and fully cancellable: the last client
// to disconnect mid-stream aborts the run through the smj.ContextEngine
// contract.
//
// Endpoints:
//
//	GET    /healthz              liveness probe
//	GET    /v1/engines           accepted engine names
//	GET    /v1/relations         catalog listing (JSON)
//	POST   /v1/relations         generate a synthetic relation (datagen spec, JSON)
//	PUT    /v1/relations/{name}  upload a relation as CSV
//	GET    /v1/relations/{name}  download a relation as CSV
//	DELETE /v1/relations/{name}  drop a relation
//	POST   /v1/relations/{name}/changes  apply a batch of single-tuple changes (NDJSON/CSV feed lines)
//	POST   /v1/query             evaluate a PREFERRING query, streaming results
//	POST   /v1/subscribe         live query: stream the result set, then maintain it over catalog changes
//	GET    /v1/stats             service counters (JSON)
//	GET    /v1/runs              recent run records (phase breakdown + progressiveness quantiles)
//	GET    /v1/runs/{id}         one run record
//	GET    /v1/runs/{id}/trace   the run's Chrome-trace document (requests with "trace": true)
//	GET    /metrics              service counters (Prometheus text format)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/engines"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// Tunable defaults; see Config.
const (
	defaultMaxConcurrentRuns = 8
	defaultRunTimeout        = 60 * time.Second
	defaultMaxUploadBytes    = 64 << 20
	defaultMaxQueryBytes     = 1 << 20
	defaultWriteStallTimeout = 30 * time.Second
	defaultEngine            = "progxe"
	defaultMaxGeneratedRows  = 10_000_000
	defaultMaxRelations      = 64
	defaultMaxTotalRows      = 20_000_000
	defaultRunLogSize        = 128
	defaultPlanCacheSize     = 128
	// DefaultCoalesceReplay is the default replay-ring bound (records per
	// run); exported so the serve binary's flag default and the Config
	// documentation agree.
	DefaultCoalesceReplay = 16384
	// defaultMaxSubscriptions bounds concurrent live subscriptions; they
	// hold resident output-space state, so they are admitted separately from
	// (and do not compete with) one-shot query runs.
	defaultMaxSubscriptions = 32
	// defaultChangeLogSize bounds the catalog's change log subscriptions
	// replay; a subscription that falls further behind is terminated with
	// replay_truncated rather than stalling the feed.
	defaultChangeLogSize = 16384
	// maxGeneratedDims bounds the dimensionality of one synthetic relation;
	// together with the row cap and the catalog-entry cap it bounds the
	// memory unauthenticated registration requests can pin (skyline queries
	// beyond a handful of dimensions are degenerate anyway — §VI shows
	// d ≤ 5).
	maxGeneratedDims = 16
)

// Config tunes the service. The zero value is fully usable.
type Config struct {
	// MaxConcurrentRuns bounds engine runs executing at once; further query
	// requests are rejected with 429 until a slot frees. Default 8.
	MaxConcurrentRuns int
	// RunTimeout caps the wall-clock duration of one engine run; the run is
	// canceled (and the stream terminated with a stats record) when it
	// expires. Default 60s; negative disables the cap.
	RunTimeout time.Duration
	// MaxUploadBytes bounds CSV upload bodies. Default 64 MiB.
	MaxUploadBytes int64
	// MaxGeneratedRows bounds the cardinality of one synthetic relation.
	// Default 10M rows.
	MaxGeneratedRows int
	// MaxRelations bounds the number of catalog entries registrable over
	// the network, so repeated generate/upload requests cannot grow the
	// resident data without bound. Default 64; negative disables the cap.
	MaxRelations int
	// MaxTotalRows bounds the aggregate resident rows across all
	// network-registered relations — the per-relation caps alone would
	// still let MaxRelations maximal relations pin tens of gigabytes.
	// Default 20M rows; negative disables the cap.
	MaxTotalRows int
	// WriteStallTimeout bounds how long one streamed record may take to
	// reach the client socket. A connected-but-stalled reader (full TCP
	// window, never closes) would otherwise block the handler inside a
	// sink write forever — past every context deadline — and pin an
	// admission slot. Default 30s; negative disables the deadline.
	WriteStallTimeout time.Duration
	// MaxRunWorkers caps the per-request "workers" knob (parallel region
	// processing). Requests asking for more are clamped, not rejected —
	// parallelism changes latency, never results. Together with
	// MaxConcurrentRuns this bounds the total engine goroutines at
	// MaxConcurrentRuns × (MaxRunWorkers + 1): admission control limits
	// how many runs execute, this limits how wide each may fan out.
	// Default GOMAXPROCS; negative disables per-request parallelism.
	MaxRunWorkers int
	// DefaultEngine is used when a query request names none. Default "progxe".
	DefaultEngine string
	// NewEngine overrides engine construction — a seam for tests to inject
	// slow or failing engines. Default engines.New.
	NewEngine func(name string, opts core.Options) (smj.Engine, error)
	// Logger receives the per-run structured log lines (one Info line per
	// finished run; Warn for slow runs). Default: discard.
	Logger *slog.Logger
	// RunLogSize bounds the /v1/runs ring buffer of recent run records.
	// Default 128; negative disables retention (the endpoints serve empty).
	RunLogSize int
	// SlowRunThreshold logs runs slower than this at Warn level with their
	// full phase breakdown. 0 disables the slow-run log.
	SlowRunThreshold time.Duration
	// PlanCacheSize bounds the compiled-plan cache: entries are keyed on
	// (engine, normalized query, relation versions) and hold the compiled
	// problem plus, for ProgXe-family engines, the prepared plan snapshot
	// whose reuse skips the partition/region-build/prune phases entirely.
	// Catalog mutations bump relation versions, invalidating stale entries
	// by key miss. Default 128 entries; negative disables the cache.
	PlanCacheSize int
	// MaxSubscriptions bounds concurrent live subscriptions (POST
	// /v1/subscribe); further subscribe requests are rejected with 429 until
	// one detaches. Subscriptions hold their output space resident, so this
	// is a memory bound as much as a concurrency one. Default 32; negative
	// disables subscriptions (every subscribe is rejected).
	MaxSubscriptions int
	// ChangeLogSize bounds the catalog's log of recent change events that
	// live subscriptions replay. A writer never waits for a subscriber; one
	// that falls off the log's tail is terminated with replay_truncated.
	// Default 16384 events.
	ChangeLogSize int
	// CoalesceReplay bounds the per-run replay ring in records. Every query
	// run streams through a run group: concurrent identical requests (same
	// plan key, limit, granted exec knobs, timeout; trace requests excluded)
	// share one engine run, each subscriber replaying the same encoded record
	// stream, and a lone request is a group of one. A subscriber that falls
	// further behind than this bound is terminated with a truncated-replay
	// error rather than stalling the run. Default DefaultCoalesceReplay.
	CoalesceReplay int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = defaultMaxConcurrentRuns
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = defaultRunTimeout
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = defaultMaxUploadBytes
	}
	if c.MaxGeneratedRows <= 0 {
		c.MaxGeneratedRows = defaultMaxGeneratedRows
	}
	if c.MaxRelations == 0 {
		c.MaxRelations = defaultMaxRelations
	}
	if c.MaxRelations < 0 {
		c.MaxRelations = 0 // unlimited
	}
	if c.MaxTotalRows == 0 {
		c.MaxTotalRows = defaultMaxTotalRows
	}
	if c.MaxTotalRows < 0 {
		c.MaxTotalRows = 0 // unlimited
	}
	if c.WriteStallTimeout == 0 {
		c.WriteStallTimeout = defaultWriteStallTimeout
	}
	if c.MaxRunWorkers == 0 {
		c.MaxRunWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxRunWorkers < 0 {
		c.MaxRunWorkers = 0 // per-request parallelism disabled
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = defaultEngine
	}
	if c.NewEngine == nil {
		c.NewEngine = engines.New
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.RunLogSize == 0 {
		c.RunLogSize = defaultRunLogSize
	}
	if c.RunLogSize < 0 {
		c.RunLogSize = 0 // retention disabled
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = defaultPlanCacheSize
	}
	if c.PlanCacheSize < 0 {
		c.PlanCacheSize = 0 // cache disabled
	}
	if c.CoalesceReplay <= 0 {
		c.CoalesceReplay = DefaultCoalesceReplay
	}
	if c.MaxSubscriptions == 0 {
		c.MaxSubscriptions = defaultMaxSubscriptions
	}
	if c.MaxSubscriptions < 0 {
		c.MaxSubscriptions = 0 // subscriptions disabled
	}
	if c.ChangeLogSize <= 0 {
		c.ChangeLogSize = defaultChangeLogSize
	}
	return c
}

// Server is the progressive query service. It implements http.Handler;
// construct with New.
type Server struct {
	cfg     Config
	catalog *Catalog
	metrics *metrics
	adm     *admission
	mux     *http.ServeMux
	runlog  *runLog
	logger  *slog.Logger
	plans   *planCache // nil when the plan cache is disabled
	coal    *coalescer
	subAdm  *admission // subscription slots, separate from query-run slots

	// runCtx is done once CancelRuns is called; every engine run's context
	// is tied to it so a graceful shutdown can abort in-flight streams.
	runCtx   context.Context
	stopRuns context.CancelFunc
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.catalog = newCatalog(s.cfg.ChangeLogSize)
	s.runCtx, s.stopRuns = context.WithCancel(context.Background())
	s.adm = newAdmission(s.cfg.MaxConcurrentRuns)
	s.runlog = newRunLog(s.cfg.RunLogSize)
	s.logger = s.cfg.Logger
	if s.cfg.PlanCacheSize > 0 {
		s.plans = newPlanCache(s.cfg.PlanCacheSize, s.metrics.planHit, s.metrics.planMiss)
	}
	s.coal = newCoalescer(s.cfg.CoalesceReplay)
	if s.cfg.MaxSubscriptions > 0 {
		s.subAdm = newAdmission(s.cfg.MaxSubscriptions)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"engines": engines.Names(), "default": s.cfg.DefaultEngine})
	})
	s.mux.HandleFunc("GET /v1/relations", s.handleListRelations)
	s.mux.HandleFunc("POST /v1/relations", s.handleGenerateRelation)
	s.mux.HandleFunc("PUT /v1/relations/{name}", s.handleUploadRelation)
	s.mux.HandleFunc("GET /v1/relations/{name}", s.handleDownloadRelation)
	s.mux.HandleFunc("DELETE /v1/relations/{name}", s.handleDeleteRelation)
	s.mux.HandleFunc("POST /v1/relations/{name}/changes", s.handleApplyChanges)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	s.mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"runs": s.runlog.list()})
	})
	s.mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := s.runlog.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errRunNotFound, "run %q is not in the run log", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.runlog.trace(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errTraceNotFound, "run %q has no stored trace (request with \"trace\": true)", r.PathValue("id"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-trace.json", r.PathValue("id")))
		_, _ = w.Write(b)
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.writePrometheus(w, s.Stats())
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Catalog exposes the relation registry, e.g. for preloading datasets at
// startup. Its mutations reach live subscriptions exactly like the HTTP
// ones: replacing or removing a subscribed relation ends the subscription.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Stats returns a snapshot of the service counters. The two gauges read the
// admission slots held at the moment of the call.
func (s *Server) Stats() Snapshot {
	st := s.metrics.snapshot()
	st.RunsActive = int64(len(s.adm.slots))
	if s.subAdm != nil {
		st.SubscriptionsLive = int64(len(s.subAdm.slots))
	}
	return st
}

// CancelRuns aborts every in-flight engine run (each stream still emits its
// stats trailer) and makes future runs abort immediately. Call it before
// http.Server.Shutdown so draining connections finish within the shutdown
// window instead of running out their timeouts.
func (s *Server) CancelRuns() { s.stopRuns() }

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// GenerateRequest is the body of POST /v1/relations: a datagen spec plus the
// name to register under.
type GenerateRequest struct {
	Name         string  `json:"name"`
	Rows         int     `json:"rows"`
	Dims         int     `json:"dims"`
	Distribution string  `json:"distribution,omitempty"` // independent | correlated | anti-correlated
	Selectivity  float64 `json:"selectivity,omitempty"`  // target join selectivity σ
	Seed         uint64  `json:"seed,omitempty"`
}

func (s *Server) handleGenerateRelation(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	body := http.MaxBytesReader(w, r.Body, defaultMaxQueryBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errBadRelation, "bad generate spec: %v", err)
		return
	}
	if !validName(req.Name) {
		writeError(w, http.StatusBadRequest, errBadRelation, "relation name %q is not a valid identifier", req.Name)
		return
	}
	if req.Rows > s.cfg.MaxGeneratedRows {
		writeError(w, http.StatusBadRequest, errBadRelation, "rows %d exceeds the per-relation cap %d", req.Rows, s.cfg.MaxGeneratedRows)
		return
	}
	if req.Dims > maxGeneratedDims {
		writeError(w, http.StatusBadRequest, errBadRelation, "dims %d exceeds the cap %d", req.Dims, maxGeneratedDims)
		return
	}
	dist := datagen.Independent
	if req.Distribution != "" {
		var err error
		if dist, err = datagen.ParseDistribution(req.Distribution); err != nil {
			writeError(w, http.StatusBadRequest, errBadRelation, "%v", err)
			return
		}
	}
	sel := req.Selectivity
	if sel == 0 {
		sel = 0.01
	}
	rel, err := datagen.Generate(datagen.Spec{
		Name: req.Name, N: req.Rows, Dims: req.Dims,
		Distribution: dist, Selectivity: sel, Seed: req.Seed,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRelation, "%v", err)
		return
	}
	if !s.registerCapped(w, rel) {
		return
	}
	writeJSON(w, http.StatusCreated, RelationInfo{
		Name: req.Name, Attrs: rel.Schema.Attrs, JoinAttr: rel.Schema.JoinAttr, Rows: rel.Len(),
	})
}

// registerCapped registers a network-supplied relation against the catalog
// caps, writing the HTTP error itself on failure.
func (s *Server) registerCapped(w http.ResponseWriter, rel *relation.Relation) bool {
	switch err := s.catalog.register(rel, s.cfg.MaxRelations, s.cfg.MaxTotalRows); {
	case err == nil:
		return true
	case errors.As(err, &ErrCatalogFull{}):
		writeError(w, http.StatusConflict, errCatalogFull, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, errBadRelation, "%v", err)
	}
	return false
}

func (s *Server) handleUploadRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, errBadRelation, "relation name %q is not a valid identifier", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	rel, err := relation.ReadCSV(name, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRelation, "%v", err)
		return
	}
	if !s.registerCapped(w, rel) {
		return
	}
	writeJSON(w, http.StatusCreated, RelationInfo{
		Name: name, Attrs: rel.Schema.Attrs, JoinAttr: rel.Schema.JoinAttr, Rows: rel.Len(),
	})
}

func (s *Server) handleDownloadRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, errRelationNotFound, "relation %q is not in the catalog", name)
		return
	}
	if s.cfg.WriteStallTimeout > 0 {
		// Bound the whole download so a stalled reader cannot pin the
		// handler; generous multiple of the per-record stream deadline.
		// Cleared afterwards so the keep-alive connection is not poisoned
		// for its next request.
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(10 * s.cfg.WriteStallTimeout))
		defer rc.SetWriteDeadline(time.Time{})
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_ = rel.WriteCSV(w)
}

func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.catalog.Remove(name) {
		writeError(w, http.StatusNotFound, errRelationNotFound, "relation %q is not in the catalog", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.catalog.List()})
}
