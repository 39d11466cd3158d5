package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"progxe/internal/obs"
)

// ttfrBuckets are the upper bounds (seconds) of the time-to-first-result
// histogram — the service-level progressiveness metric. Counts are
// cumulative, Prometheus-style: bucket i counts runs whose first result
// arrived within ttfrBuckets[i].
var ttfrBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics aggregates service counters. All methods are safe for concurrent
// use; reads return consistent snapshots.
type metrics struct {
	mu              sync.Mutex
	runsStarted     int64
	runsCompleted   int64
	runsCanceled    int64
	runsFailed      int64
	runsRejected    int64
	resultsStreamed int64
	// Plan-cache and run-coalescing counters. Hits and misses count
	// getOrBuild consultations (deduplicated builders count one miss;
	// sharers of an in-flight build count hits); coalescedRuns counts
	// engine runs started on behalf of a shareable run group (every run
	// but the private trace ones), and coalescedSubscribers every stream
	// attached to one (leaders included), so fan-out = subscribers / runs. replayTruncated counts
	// subscribers disconnected because they fell behind the bounded
	// replay ring.
	planCacheHits        int64
	planCacheMisses      int64
	coalescedRuns        int64
	coalescedSubscribers int64
	replayTruncated      int64
	// Live-subscription counters. subsStarted counts every subscription
	// that staged its output space;
	// subChanges counts catalog change events folded into resident output
	// spaces across all subscriptions plus changes applied through the feed
	// endpoint; subRetracts counts retract records streamed.
	subsStarted int64
	subChanges  int64
	subRetracts int64
	ttfr        *histogram
	// progress holds per-engine, per-milestone histograms of the run
	// progressiveness quantiles (TT-first/10%/50%/90%/last), over the same
	// bucket bounds as the TTFR histogram.
	progress map[progressKey]*histogram
	// phaseSeconds accumulates profiler phase time per (phase, lane).
	phaseSeconds map[phaseKey]float64
}

// progressKey labels one progressiveness histogram series.
type progressKey struct {
	engine    string
	milestone string // first | p10 | p50 | p90 | last
}

// phaseKey labels one phase-time counter series.
type phaseKey struct {
	phase string
	lane  string // sequencer | worker
}

// histogram is one cumulative-on-read histogram over ttfrBuckets.
type histogram struct {
	counts []int64 // len(ttfrBuckets)+1; last is +Inf
	sum    float64 // seconds
	n      int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(ttfrBuckets)+1)}
}

func (h *histogram) observe(s float64) {
	i := 0
	for i < len(ttfrBuckets) && s > ttfrBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += s
	h.n++
}

// buckets returns the cumulative buckets, +Inf last.
func (h *histogram) buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if i < len(ttfrBuckets) {
			out[i] = Bucket{LE: ttfrBuckets[i], Count: cum}
		} else {
			out[i] = Bucket{Inf: true, Count: cum}
		}
	}
	return out
}

func newMetrics() *metrics {
	return &metrics{
		ttfr:         newHistogram(),
		progress:     make(map[progressKey]*histogram),
		phaseSeconds: make(map[phaseKey]float64),
	}
}

func (m *metrics) runStarted() {
	m.mu.Lock()
	m.runsStarted++
	m.mu.Unlock()
}

// runOutcome classifies how a run ended.
type runOutcome int

const (
	runCompleted runOutcome = iota
	runCanceled
	runFailed
)

func (m *metrics) runFinished(o runOutcome, results int64) {
	m.mu.Lock()
	switch o {
	case runCompleted:
		m.runsCompleted++
	case runCanceled:
		m.runsCanceled++
	case runFailed:
		m.runsFailed++
	}
	m.resultsStreamed += results
	m.mu.Unlock()
}

func (m *metrics) runRejected() {
	m.mu.Lock()
	m.runsRejected++
	m.mu.Unlock()
}

func (m *metrics) planHit() {
	m.mu.Lock()
	m.planCacheHits++
	m.mu.Unlock()
}

func (m *metrics) planMiss() {
	m.mu.Lock()
	m.planCacheMisses++
	m.mu.Unlock()
}

func (m *metrics) coalescedRunStarted() {
	m.mu.Lock()
	m.coalescedRuns++
	m.mu.Unlock()
}

func (m *metrics) coalescedAttach() {
	m.mu.Lock()
	m.coalescedSubscribers++
	m.mu.Unlock()
}

func (m *metrics) replayTruncation() {
	m.mu.Lock()
	m.replayTruncated++
	m.mu.Unlock()
}

func (m *metrics) subStarted() {
	m.mu.Lock()
	m.subsStarted++
	m.mu.Unlock()
}

func (m *metrics) subFinished(applied, retractions int64) {
	m.mu.Lock()
	m.subChanges += applied
	m.subRetracts += retractions
	m.mu.Unlock()
}

func (m *metrics) subChangesApplied(n int64) {
	m.mu.Lock()
	m.subChanges += n
	m.mu.Unlock()
}

// observeProgress folds one run's progressiveness quantiles into the
// per-engine labeled histograms. Runs without results record nothing.
func (m *metrics) observeProgress(engine string, q obs.Quantiles) {
	if q.Count == 0 {
		return
	}
	m.mu.Lock()
	for _, ms := range [...]struct {
		name   string
		millis float64
	}{
		{"first", q.FirstMillis},
		{"p10", q.P10Millis},
		{"p50", q.P50Millis},
		{"p90", q.P90Millis},
		{"last", q.LastMillis},
	} {
		k := progressKey{engine: engine, milestone: ms.name}
		h := m.progress[k]
		if h == nil {
			h = newHistogram()
			m.progress[k] = h
		}
		h.observe(ms.millis / 1000)
	}
	m.mu.Unlock()
}

// observePhases folds one run's profiler report into the per-phase time
// counters, split by lane.
func (m *metrics) observePhases(rep obs.Report) {
	if len(rep.Phases) == 0 {
		return
	}
	m.mu.Lock()
	for _, ph := range rep.Phases {
		if ph.SequencerMillis > 0 {
			m.phaseSeconds[phaseKey{phase: ph.Phase, lane: "sequencer"}] += ph.SequencerMillis / 1000
		}
		if ph.WorkerMillis > 0 {
			m.phaseSeconds[phaseKey{phase: ph.Phase, lane: "worker"}] += ph.WorkerMillis / 1000
		}
	}
	m.mu.Unlock()
}

// observeTTFR records the time-to-first-result of one run.
func (m *metrics) observeTTFR(d time.Duration) {
	m.mu.Lock()
	m.ttfr.observe(d.Seconds())
	m.mu.Unlock()
}

// Bucket is one cumulative histogram bucket of a Snapshot.
type Bucket struct {
	LE    float64 `json:"le"` // upper bound in seconds; +Inf encoded as 0 with Inf=true
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"` // cumulative
}

// label renders the bucket's upper bound as a Prometheus le label.
func (b Bucket) label() string {
	if b.Inf {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b.LE)
}

// Snapshot is a point-in-time view of the service counters, shaped for the
// JSON stats endpoint.
type Snapshot struct {
	RunsStarted     int64 `json:"runsStarted"`
	RunsActive      int64 `json:"runsActive"` // query runs admitted: run slots held
	RunsCompleted   int64 `json:"runsCompleted"`
	RunsCanceled    int64 `json:"runsCanceled"`
	RunsFailed      int64 `json:"runsFailed"`
	RunsRejected    int64 `json:"runsRejected"`
	ResultsStreamed int64 `json:"resultsStreamed"`
	// Plan-cache and coalescing counters; see metrics for semantics.
	PlanCacheHits        int64 `json:"planCacheHits"`
	PlanCacheMisses      int64 `json:"planCacheMisses"`
	CoalescedRuns        int64 `json:"coalescedRuns"`
	CoalescedSubscribers int64 `json:"coalescedSubscribers"`
	ReplayTruncated      int64 `json:"replayTruncated"`
	// Live-subscription counters; see metrics for semantics.
	SubscriptionsStarted       int64    `json:"subscriptionsStarted"`
	SubscriptionsLive          int64    `json:"subscriptionsLive"` // subscription slots held
	SubscriptionChangesApplied int64    `json:"subscriptionChangesApplied"`
	SubscriptionRetractions    int64    `json:"subscriptionRetractions"`
	TTFRObserved               int64    `json:"ttfrObserved"`
	TTFRSumSeconds             float64  `json:"ttfrSumSeconds"`
	TTFR                       []Bucket `json:"ttfr"`
	// Progress summarizes the per-engine progressiveness milestones
	// (count and summed seconds per series; the full bucket vectors are
	// exposed on /metrics).
	Progress []ProgressStat `json:"progress,omitempty"`
	// PhaseSeconds totals profiler phase time per (phase, lane).
	PhaseSeconds []PhaseStat `json:"phaseSeconds,omitempty"`
}

// ProgressStat is one engine × milestone progressiveness series.
type ProgressStat struct {
	Engine     string  `json:"engine"`
	Milestone  string  `json:"milestone"` // first | p10 | p50 | p90 | last
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sumSeconds"`
}

// PhaseStat is one phase × lane accumulated-time series.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Lane    string  `json:"lane"` // sequencer | worker
	Seconds float64 `json:"seconds"`
}

// snapshot reads the counters; Server.Stats fills the gauges.
func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		RunsStarted:     m.runsStarted,
		RunsCompleted:   m.runsCompleted,
		RunsCanceled:    m.runsCanceled,
		RunsFailed:      m.runsFailed,
		RunsRejected:    m.runsRejected,
		ResultsStreamed: m.resultsStreamed,

		PlanCacheHits:        m.planCacheHits,
		PlanCacheMisses:      m.planCacheMisses,
		CoalescedRuns:        m.coalescedRuns,
		CoalescedSubscribers: m.coalescedSubscribers,
		ReplayTruncated:      m.replayTruncated,

		SubscriptionsStarted:       m.subsStarted,
		SubscriptionChangesApplied: m.subChanges,
		SubscriptionRetractions:    m.subRetracts,
		TTFRObserved:               m.ttfr.n,
		TTFRSumSeconds:             m.ttfr.sum,
		TTFR:                       m.ttfr.buckets(),
	}
	for k, h := range m.progress {
		s.Progress = append(s.Progress, ProgressStat{
			Engine: k.engine, Milestone: k.milestone, Count: h.n, SumSeconds: h.sum,
		})
	}
	sort.Slice(s.Progress, func(i, j int) bool {
		if s.Progress[i].Engine != s.Progress[j].Engine {
			return s.Progress[i].Engine < s.Progress[j].Engine
		}
		return milestoneOrder(s.Progress[i].Milestone) < milestoneOrder(s.Progress[j].Milestone)
	})
	for k, sec := range m.phaseSeconds {
		s.PhaseSeconds = append(s.PhaseSeconds, PhaseStat{Phase: k.phase, Lane: k.lane, Seconds: sec})
	}
	sort.Slice(s.PhaseSeconds, func(i, j int) bool {
		if s.PhaseSeconds[i].Phase != s.PhaseSeconds[j].Phase {
			return s.PhaseSeconds[i].Phase < s.PhaseSeconds[j].Phase
		}
		return s.PhaseSeconds[i].Lane < s.PhaseSeconds[j].Lane
	})
	return s
}

// milestoneOrder sorts milestones along the emission curve.
func milestoneOrder(m string) int {
	switch m {
	case "first":
		return 0
	case "p10":
		return 1
	case "p50":
		return 2
	case "p90":
		return 3
	case "last":
		return 4
	default:
		return 5
	}
}

// writePrometheus renders s and the histograms in the Prometheus text
// exposition format (stdlib only — no client library dependency).
func (m *metrics) writePrometheus(w io.Writer, s Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("progxe_runs_started_total", "Engine runs admitted.", s.RunsStarted)
	counter("progxe_runs_completed_total", "Engine runs that ran to completion.", s.RunsCompleted)
	counter("progxe_runs_canceled_total", "Engine runs aborted by disconnect, timeout, or limit.", s.RunsCanceled)
	counter("progxe_runs_failed_total", "Engine runs that returned an error.", s.RunsFailed)
	counter("progxe_runs_rejected_total", "Query requests shed by the admission controller.", s.RunsRejected)
	counter("progxe_results_streamed_total", "Results streamed to clients.", s.ResultsStreamed)
	counter("progxe_plan_cache_hits_total", "Query requests served a cached compiled plan.", s.PlanCacheHits)
	counter("progxe_plan_cache_misses_total", "Query requests that compiled and cached a plan.", s.PlanCacheMisses)
	counter("progxe_coalesced_runs_total", "Engine runs started on behalf of shareable run groups (every run but trace runs).", s.CoalescedRuns)
	counter("progxe_coalesced_subscribers_total", "Streams attached to shareable run groups (leaders included).", s.CoalescedSubscribers)
	counter("progxe_replay_truncated_total", "Subscribers dropped after falling behind a replay ring.", s.ReplayTruncated)
	counter("progxe_subscriptions_started_total", "Live subscriptions admitted.", s.SubscriptionsStarted)
	counter("progxe_subscription_changes_applied_total", "Catalog change events folded into live subscriptions and applied through the change feed.", s.SubscriptionChangesApplied)
	counter("progxe_subscription_retractions_total", "Retract records streamed by live subscriptions.", s.SubscriptionRetractions)
	fmt.Fprintf(w, "# HELP progxe_runs_active Query runs currently admitted (run slots held).\n# TYPE progxe_runs_active gauge\nprogxe_runs_active %d\n", s.RunsActive)
	fmt.Fprintf(w, "# HELP progxe_subscriptions_live Live subscriptions currently admitted (subscription slots held).\n# TYPE progxe_subscriptions_live gauge\nprogxe_subscriptions_live %d\n", s.SubscriptionsLive)
	fmt.Fprintf(w, "# HELP progxe_ttfr_seconds Time to first streamed result.\n# TYPE progxe_ttfr_seconds histogram\n")
	for _, b := range s.TTFR {
		fmt.Fprintf(w, "progxe_ttfr_seconds_bucket{le=%q} %d\n", b.label(), b.Count)
	}
	fmt.Fprintf(w, "progxe_ttfr_seconds_sum %g\n", s.TTFRSumSeconds)
	fmt.Fprintf(w, "progxe_ttfr_seconds_count %d\n", s.TTFRObserved)

	// Per-engine progressiveness milestones and per-phase time need the raw
	// maps (the snapshot carries only count/sum); copy them under the lock,
	// then render in deterministic key order.
	m.mu.Lock()
	pkeys := make([]progressKey, 0, len(m.progress))
	hists := make(map[progressKey]histogram, len(m.progress))
	for k, h := range m.progress {
		pkeys = append(pkeys, k)
		c := *h
		c.counts = append([]int64(nil), h.counts...)
		hists[k] = c
	}
	fkeys := make([]phaseKey, 0, len(m.phaseSeconds))
	phases := make(map[phaseKey]float64, len(m.phaseSeconds))
	for k, v := range m.phaseSeconds {
		fkeys = append(fkeys, k)
		phases[k] = v
	}
	m.mu.Unlock()
	sort.Slice(pkeys, func(i, j int) bool {
		if pkeys[i].engine != pkeys[j].engine {
			return pkeys[i].engine < pkeys[j].engine
		}
		return milestoneOrder(pkeys[i].milestone) < milestoneOrder(pkeys[j].milestone)
	})
	sort.Slice(fkeys, func(i, j int) bool {
		if fkeys[i].phase != fkeys[j].phase {
			return fkeys[i].phase < fkeys[j].phase
		}
		return fkeys[i].lane < fkeys[j].lane
	})
	if len(pkeys) > 0 {
		fmt.Fprintf(w, "# HELP progxe_run_progress_seconds Time to progressiveness milestones (first/p10/p50/p90/last emitted result), per engine.\n# TYPE progxe_run_progress_seconds histogram\n")
		for _, k := range pkeys {
			h := hists[k]
			for _, b := range h.buckets() {
				fmt.Fprintf(w, "progxe_run_progress_seconds_bucket{engine=%q,milestone=%q,le=%q} %d\n", k.engine, k.milestone, b.label(), b.Count)
			}
			fmt.Fprintf(w, "progxe_run_progress_seconds_sum{engine=%q,milestone=%q} %g\n", k.engine, k.milestone, h.sum)
			fmt.Fprintf(w, "progxe_run_progress_seconds_count{engine=%q,milestone=%q} %d\n", k.engine, k.milestone, h.n)
		}
	}
	if len(fkeys) > 0 {
		fmt.Fprintf(w, "# HELP progxe_phase_seconds_total Engine phase time attributed by the run profiler.\n# TYPE progxe_phase_seconds_total counter\n")
		for _, k := range fkeys {
			fmt.Fprintf(w, "progxe_phase_seconds_total{phase=%q,lane=%q} %g\n", k.phase, k.lane, phases[k])
		}
	}
}
