package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// JSONRun is one engine execution in the machine-readable report: the
// figures' headline quantities (total and first-result latency) plus the
// work counters that perf work tracks across PRs. Workers records the
// parallel region-processing fan-out the run used (0 = serial).
type JSONRun struct {
	Engine  string  `json:"engine"`
	N       int     `json:"n"`
	Dims    int     `json:"dims"`
	Dist    string  `json:"dist"`
	Sigma   float64 `json:"sigma"`
	Workers int     `json:"workers,omitempty"`
	TotalMS float64 `json:"total_ms"`
	FirstMS float64 `json:"first_ms"`
	// TT50MS/TT90MS are the progressiveness milestones: the time by which
	// 50% / 90% of the final result set had been emitted.
	TT50MS float64 `json:"tt50_ms,omitempty"`
	TT90MS float64 `json:"tt90_ms,omitempty"`
	// Phase attribution from the run's profiler (ProgXe-family engines):
	// sequencer wall time, aggregated worker time, and the fraction of
	// sequencer time spent in the serial commit+determine section.
	SeqMS            float64 `json:"seq_ms,omitempty"`
	WorkerMS         float64 `json:"worker_ms,omitempty"`
	SerialCommitFrac float64 `json:"serial_commit_frac,omitempty"`
	Results          int     `json:"results"`
	DomComparisons   int     `json:"dom_comparisons"`
	JoinResults      int     `json:"join_results"`
	// Regions records the run's output-region count (live + pruned), the
	// scheduling load of the cell.
	Regions int    `json:"regions,omitempty"`
	Error   string `json:"error,omitempty"`
	// Serve-path metrics, populated by the load harness (cmd/progxe-loadgen)
	// when the run was measured through the HTTP serve layer rather than by
	// driving the engine directly: client-observed time-to-first-result
	// quantiles, sustained completed-request throughput, the plan-cache hit
	// rate over the measured window, and the mean subscriber fan-out per
	// coalesced engine run.
	ServeTTFRP50MS float64 `json:"serve_ttfr_p50_ms,omitempty"`
	ServeTTFRP99MS float64 `json:"serve_ttfr_p99_ms,omitempty"`
	ThroughputRPS  float64 `json:"throughput_rps,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	CoalesceFanout float64 `json:"coalesce_fanout,omitempty"`
}

// JSONFigure groups the runs of one reproduced figure.
type JSONFigure struct {
	Figure  string    `json:"figure"`
	Caption string    `json:"caption"`
	Kind    string    `json:"kind"`
	Runs    []JSONRun `json:"runs"`
}

// JSONReport is the document progxe-bench -json emits: one entry per
// executed figure, with the context (workload, scale, GOMAXPROCS) it was
// measured under.
type JSONReport struct {
	Scale      float64      `json:"scale"`
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	Figures    []JSONFigure `json:"figures"`
}

// AddFigure appends a figure's runs to the report.
func (r *JSONReport) AddFigure(f Figure, runs []RunResult) {
	jf := JSONFigure{Figure: f.ID, Caption: f.Caption, Kind: f.Kind.String()}
	for _, run := range runs {
		jr := JSONRun{
			Engine:         run.Engine,
			N:              run.Workload.N,
			Dims:           run.Workload.Dims,
			Dist:           run.Workload.Dist.String(),
			Sigma:          run.Workload.Sigma,
			Workers:        run.Workers,
			TotalMS:        float64(run.Total) / float64(time.Millisecond),
			FirstMS:        float64(run.First) / float64(time.Millisecond),
			Results:        run.Results,
			DomComparisons: run.Stats.DomComparisons,
			JoinResults:    run.Stats.JoinResults,
			Regions:        run.Stats.Regions,
		}
		if tt := run.FractionTime(0.5); tt >= 0 {
			jr.TT50MS = float64(tt) / float64(time.Millisecond)
		}
		if tt := run.FractionTime(0.9); tt >= 0 {
			jr.TT90MS = float64(tt) / float64(time.Millisecond)
		}
		jr.SeqMS = run.Phases.SequencerMillis
		jr.WorkerMS = run.Phases.WorkerMillis
		jr.SerialCommitFrac = run.Phases.SerialCommitFraction
		if run.Err != nil {
			jr.Error = run.Err.Error()
		}
		jf.Runs = append(jf.Runs, jr)
	}
	r.Figures = append(r.Figures, jf)
}

// WriteJSON renders the report with stable indentation.
func (r *JSONReport) WriteJSON(w io.Writer) error {
	r.Scale = Scale()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
