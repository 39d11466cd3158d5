package bench

import (
	"fmt"
	"math"
	"time"

	"progxe/internal/core"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// RunResult captures one engine execution over one workload.
type RunResult struct {
	Engine   string
	Workload Workload
	Workers  int           // parallel region-processing workers (0 = serial)
	Total    time.Duration // wall-clock to complete result set
	First    time.Duration // Progress's first-result time (0 if none)
	// Progress is the results-over-time curve of Figs. 10–12 reduced to its
	// milestones by an obs.Timeline, the curve type /v1/query reports
	// (zero for an obsOff run).
	Progress obs.Quantiles
	Results  int
	Stats    smj.Stats
	// Phases is the profiler's breakdown with serial-vs-parallel
	// attribution (ProgXe-family engines; empty for baselines).
	Phases obs.Report
	Err    error
}

// obsLevel is how much observability a run carries.
type obsLevel int8

const (
	// obsOff attaches nothing: the control arm of the overhead gate. The
	// run reports Total, Results and Stats only.
	obsOff obsLevel = iota
	// obsFigure records the emission timeline and, on ProgXe-family
	// engines, the phase profiler: every figure run.
	obsFigure
	// obsFull adds span recording and the trace recorder — the heaviest
	// configuration a serve request can ask for, the gate's measured arm.
	obsFull
)

// runOn executes the engine on a pre-built problem (so sweeps can share
// data), timing emissions from the start of query processing.
func runOn(spec EngineSpec, w Workload, p *smj.Problem, level obsLevel) RunResult {
	res := RunResult{Engine: spec.Name, Workload: w, Workers: spec.Workers}
	var prof *obs.Profiler
	var e smj.Engine
	if level > obsOff && spec.opts != nil {
		prof = obs.NewProfiler()
		o := *spec.opts
		o.Profiler = prof
		if level == obsFull {
			prof.EnableSpans()
			o.Trace = core.NewTraceRecorder(prof.Epoch()).Observe
		}
		e = core.New(o)
	} else {
		e = spec.New()
	}
	start := time.Now()
	var tl *obs.Timeline // nil at obsOff: Observe and Quantiles are no-ops
	if level > obsOff {
		tl = obs.NewTimeline(start)
	}
	sink := smj.SinkFunc(func(smj.Result) {
		tl.Observe()
		res.Results++
	})
	res.Stats, res.Err = e.Run(p, sink)
	res.Total = time.Since(start)
	res.Progress = tl.Quantiles()
	res.First = millisDuration(res.Progress.FirstMillis)
	res.Phases = prof.Report()
	return res
}

// millisDuration converts a Quantiles milestone back to a duration.
func millisDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// Summary renders a one-line digest: first/median/complete timings.
func (r RunResult) Summary() string {
	if r.Err != nil {
		return fmt.Sprintf("%-20s ERROR: %v", r.Engine, r.Err)
	}
	if r.Results == 0 {
		return fmt.Sprintf("%-20s no results (total %v)", r.Engine, r.Total.Round(time.Microsecond))
	}
	q := r.Progress
	return fmt.Sprintf("%-20s first=%-10v 50%%=%-10v 90%%=%-10v 100%%=%-10v total=%-10v results=%d",
		r.Engine,
		millisDuration(q.FirstMillis).Round(time.Microsecond),
		millisDuration(q.P50Millis).Round(time.Microsecond),
		millisDuration(q.P90Millis).Round(time.Microsecond),
		millisDuration(q.LastMillis).Round(time.Microsecond),
		r.Total.Round(time.Microsecond),
		r.Results)
}
