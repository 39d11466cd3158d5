package bench

import (
	"fmt"
	"time"

	"progxe/internal/core"
	"progxe/internal/obs"
	"progxe/internal/smj"
)

// ProgressPoint is one step of a cumulative results-over-time curve — the
// quantity plotted on the y-axis of Figs. 10–12.
type ProgressPoint struct {
	Elapsed time.Duration
	Count   int
}

// RunResult captures one engine execution over one workload.
type RunResult struct {
	Engine   string
	Workload Workload
	Workers  int             // parallel region-processing workers (0 = serial)
	Total    time.Duration   // wall-clock to complete result set
	First    time.Duration   // time of the first emitted result (0 if none)
	Points   []ProgressPoint // cumulative curve, one entry per emission
	Results  int
	Stats    smj.Stats
	// Phases is the profiler's breakdown with serial-vs-parallel
	// attribution (ProgXe-family engines; empty for baselines).
	Phases obs.Report
	Err    error
}

// Run executes the engine on the workload's problem, timestamping every
// emission relative to the start of query processing.
func Run(spec EngineSpec, w Workload) RunResult {
	res := RunResult{Engine: spec.Name, Workload: w}
	p, err := w.Problem()
	if err != nil {
		res.Err = err
		return res
	}
	return RunOn(spec, w, p)
}

// RunOn is Run against a pre-built problem (so sweeps can share data).
// ProgXe-family runs carry the phase profiler (zero-alloc on the hot path;
// the overhead is gated against the unobserved run by progxe-bench
// -obs-gate), so every report ships first-party attribution.
func RunOn(spec EngineSpec, w Workload, p *smj.Problem) RunResult {
	return runOn(spec, w, p, true)
}

// RunOnUnobserved is RunOn without the profiler attached — the control arm
// of the observability overhead gate.
func RunOnUnobserved(spec EngineSpec, w Workload, p *smj.Problem) RunResult {
	return runOn(spec, w, p, false)
}

func runOn(spec EngineSpec, w Workload, p *smj.Problem, observe bool) RunResult {
	res := RunResult{Engine: spec.Name, Workload: w, Workers: spec.Workers}
	var prof *obs.Profiler
	var e smj.Engine
	if observe && spec.opts != nil {
		prof = obs.NewProfiler()
		o := *spec.opts
		o.Profiler = prof
		e = core.New(o)
	} else {
		e = spec.New()
	}
	start := time.Now()
	count := 0
	sink := smj.SinkFunc(func(smj.Result) {
		count++
		el := time.Since(start)
		if count == 1 {
			res.First = el
		}
		res.Points = append(res.Points, ProgressPoint{Elapsed: el, Count: count})
	})
	stats, err := e.Run(p, sink)
	res.Total = time.Since(start)
	res.Results = count
	res.Stats = stats
	res.Phases = prof.Report()
	res.Err = err
	return res
}

// CountAt returns the cumulative number of results emitted by time t.
func (r RunResult) CountAt(t time.Duration) int {
	n := 0
	for _, pt := range r.Points {
		if pt.Elapsed > t {
			break
		}
		n = pt.Count
	}
	return n
}

// FractionTime returns the time by which the given fraction (0..1] of the
// final results had been emitted, or -1 if never reached.
func (r RunResult) FractionTime(frac float64) time.Duration {
	if r.Results == 0 {
		return -1
	}
	target := int(frac * float64(r.Results))
	if target < 1 {
		target = 1
	}
	for _, pt := range r.Points {
		if pt.Count >= target {
			return pt.Elapsed
		}
	}
	return -1
}

// Downsample reduces the curve to at most n points, always keeping the first
// and last emission, for compact printing.
func (r RunResult) Downsample(n int) []ProgressPoint {
	pts := r.Points
	if len(pts) <= n || n < 2 {
		return pts
	}
	out := make([]ProgressPoint, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(float64(i) * step)
		if idx == prev {
			continue
		}
		prev = idx
		out = append(out, pts[idx])
	}
	if out[len(out)-1] != pts[len(pts)-1] {
		out = append(out, pts[len(pts)-1])
	}
	return out
}

// Summary renders a one-line digest: first/median/complete timings.
func (r RunResult) Summary() string {
	if r.Err != nil {
		return fmt.Sprintf("%-20s ERROR: %v", r.Engine, r.Err)
	}
	if r.Results == 0 {
		return fmt.Sprintf("%-20s no results (total %v)", r.Engine, r.Total.Round(time.Microsecond))
	}
	return fmt.Sprintf("%-20s first=%-10v 50%%=%-10v 90%%=%-10v 100%%=%-10v total=%-10v results=%d",
		r.Engine,
		r.First.Round(time.Microsecond),
		r.FractionTime(0.5).Round(time.Microsecond),
		r.FractionTime(0.9).Round(time.Microsecond),
		r.FractionTime(1.0).Round(time.Microsecond),
		r.Total.Round(time.Microsecond),
		r.Results)
}
