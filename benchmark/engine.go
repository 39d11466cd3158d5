package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"progxe"
	"progxe/internal/obs"
)

// config is what one pass needs to know beyond its workload.
type config struct {
	seed    uint64
	seconds float64 // length of the measured window
	quick   bool    // smoke run: tiny inputs, two operations per loop
	clients int     // client goroutines of the closed loops
	outDir  string
}

// minOps is the fewest measured operations an engine loop runs, however
// long each takes.
const minOps = 3

// loop runs body until the window has elapsed (at least minOps times), or
// exactly twice in a quick run.
func (c config) loop(body func()) {
	start := time.Now()
	for n := 0; ; n++ {
		if c.quick && n == 2 {
			return
		}
		if !c.quick && n >= minOps && time.Since(start).Seconds() >= c.seconds {
			return
		}
		body()
	}
}

// timeSink is the consumer of an engine operation: it stamps every emission
// and folds it into the stream digest.
type timeSink struct {
	start time.Time
	at    []int64 // emission times, ns since start
	dig   digest
}

func (s *timeSink) Emit(r progxe.Result) {
	s.at = append(s.at, int64(time.Since(s.start)))
	s.dig = s.dig.result(r.LeftID, r.RightID, r.Out)
}

// opSample is what the consumer of one operation observed.
type opSample struct {
	ttfr, tt50, tt90, total float64 // ms since the operation started
	results                 int
	dig                     digest
}

// fractionMs is the time at which ⌈f·R⌉ of the R final results had arrived.
func fractionMs(at []int64, f float64) float64 {
	k := int(math.Ceil(f * float64(len(at))))
	if k < 1 {
		k = 1
	}
	return float64(at[k-1]) / 1e6
}

// sample reduces a finished sink; total is the operation's full duration.
func (s *timeSink) sample(total float64) (opSample, error) {
	if len(s.at) == 0 {
		return opSample{}, fmt.Errorf("operation emitted no result")
	}
	return opSample{
		ttfr: float64(s.at[0]) / 1e6, tt50: fractionMs(s.at, 0.5), tt90: fractionMs(s.at, 0.9),
		total: total, results: len(s.at), dig: s.dig,
	}, nil
}

// engineOp runs one untraced operation: a fresh engine through RunContext,
// after an untimed collection so no operation pays for its predecessor.
func engineOp(opts progxe.Options, p *progxe.Problem, hint int) (opSample, error) {
	runtime.GC()
	e := progxe.New(opts)
	sink := &timeSink{at: make([]int64, 0, hint), dig: newDigest()}
	sink.start = time.Now()
	_, err := progxe.RunContext(context.Background(), e, p, sink)
	total := msSince(sink.start)
	if err != nil {
		return opSample{}, err
	}
	return sink.sample(total)
}

// opSeries accumulates the samples of a measured loop and checks each
// operation's stream against the digest every operation must reproduce.
type opSeries struct {
	rep                     *report
	want                    digest
	ttfr, tt50, tt90, total []float64
}

// check counts one operation and holds its stream against the digest.
func (o *opSeries) check(s opSample, err error) bool {
	if err == nil && s.dig != o.want {
		err = fmt.Errorf("emission digest %x differs from the warm-up's %x", s.dig, o.want)
	}
	o.rep.op(err)
	return err == nil
}

// add checks an operation and keeps its samples.
func (o *opSeries) add(s opSample, err error) {
	if !o.check(s, err) {
		return
	}
	o.ttfr, o.tt50 = append(o.ttfr, s.ttfr), append(o.tt50, s.tt50)
	o.tt90, o.total = append(o.tt90, s.tt90), append(o.total, s.total)
}

// setEndToEnd records the progressiveness metrics shared by every workload:
// when the first result and the complete answer arrive, at the reference
// host's speed (see ref.go), and at what share of the complete answer's time
// the first, the median and the 90th-percentile result had arrived. The
// shares compare two medians of one window, so what the host does to the
// whole window cancels out of them without help.
func (o *opSeries) setEndToEnd(speed ratio) {
	n := len(o.total)
	total := median(o.total)
	o.rep.setScaled("ttfr_ms", median(o.ttfr), speed, len(o.ttfr))
	o.rep.setScaled("total_ms", total, speed, n)
	o.rep.setRatio("ttfr_share", ratio{median(o.ttfr), total, "ms"}, len(o.ttfr))
	o.rep.setRatio("tt50_share", ratio{median(o.tt50), total, "ms"}, n)
	o.rep.setRatio("tt90_share", ratio{median(o.tt90), total, "ms"}, n)
}

// setConsumer records the absolute progress times, for the traced pass.
func (o *opSeries) setConsumer() {
	o.rep.set("consumer.tt50_ms", median(o.tt50), len(o.tt50))
	o.rep.set("consumer.tt90_ms", median(o.tt90), len(o.tt90))
}

// residentMB is the heap still reachable after a forced collection, less
// what the benchmark's own reference kernels hold.
func residentMB(kernels ...*refKernel) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heap := float64(m.HeapAlloc)
	for _, k := range kernels {
		heap -= k.bytes()
	}
	return heap / 1e6
}

// engineSetup sets the workload up setupRounds times — generate the inputs,
// compile the query, run the warm-up operation — and records the median as
// setup_s, at reference speed; the kernel runs after every round. It returns
// the inputs and the last warm-up's answer, for checking.
func engineSetup(w workload, cfg config, rep *report, k *refKernel) (*inputs, []progxe.Result, error) {
	var (
		in    *inputs
		warm  progxe.Collector
		err   error
		setup []float64
	)
	sp := &speedometer{k: k}
	for i := 0; i < setupRounds; i++ {
		warm = progxe.Collector{}
		start := time.Now()
		if in, err = w.generate(cfg.seed); err != nil {
			return nil, nil, err
		}
		if _, err := progxe.RunContext(context.Background(), progxe.New(w.opts), in.problem, &warm); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, msSince(start))
		sp.tick()
	}
	if len(warm.Results) == 0 {
		return nil, nil, fmt.Errorf("warm-up emitted no result")
	}
	rep.setScaled("setup_s", median(setup)/1000, sp.speed(), setupRounds)
	return in, warm.Results, nil
}

// engineUntraced is the end-to-end pass of an engine workload: operation,
// reference kernel, operation, … for the window.
func engineUntraced(w workload, cfg config) *report {
	rep := newReport(w.name)
	sp := newSpeedometer()
	in, warm, err := engineSetup(w, cfg, rep, sp.k)
	if err != nil {
		rep.op(err)
		return rep
	}
	series := &opSeries{rep: rep, want: digestOf(warm)}
	rep.op(checkAnswer(in.problem, warm))
	rep.op(checkTwin(w, cfg.seed))
	hint := len(warm)
	warm = nil

	busy := 0.0
	cfg.loop(func() {
		s, err := engineOp(w.opts, in.problem, hint)
		series.add(s, err)
		busy += s.total
		sp.tick()
	})
	speed := sp.speed()
	series.setEndToEnd(speed)
	if busy > 0 {
		rep.setScaled("ops_per_s", float64(len(series.total))/(busy/1000), speed.inverse(), len(series.total))
	}
	rep.setResident(sp.k)
	runtime.KeepAlive(in)
	return rep
}

// tracedSample is what one traced operation yielded beyond its consumer's
// view: the two spans, the profiler's phase totals and the engine's counters.
type tracedSample struct {
	opSample
	prepareMs, runMs float64
	phases           obs.Report
	stats            progxe.Stats
	live, pruned     int
}

// tracedOp runs one operation the way the traced pass sees it: plan
// construction and plan evaluation as two calls under the engine's own
// profiler, each inside a benchmark-owned span.
func tracedOp(tr *tracer, opts progxe.Options, p *progxe.Problem, hint int) (tracedSample, error) {
	runtime.GC()
	var out tracedSample
	prof := obs.NewProfiler()
	opts.Profiler = prof
	e := progxe.New(opts)
	ctx := context.Background()
	sink := &timeSink{at: make([]int64, 0, hint), dig: newDigest()}

	op := tr.newOp()
	root := tr.begin("core.op", -1, op)
	sink.start = time.Now()
	prep := tr.begin("core.prepare", root, op)
	pl, ok, err := progxe.PrepareContext(ctx, e, p)
	tr.end(prep)
	if err == nil && !ok {
		err = fmt.Errorf("engine %s cannot prepare plans", e.Name())
	}
	if err != nil {
		tr.end(root)
		return out, err
	}
	run := tr.begin("core.run_plan", root, op)
	out.stats, err = progxe.RunPreparedContext(ctx, e, pl, sink)
	tr.end(run)
	total := msSince(sink.start)
	tr.end(root)
	if err != nil {
		return out, err
	}
	out.opSample, err = sink.sample(total)
	out.prepareMs, out.runMs = tr.millis(prep), tr.millis(run)
	out.phases = prof.Report()
	out.live, out.pruned = pl.Regions()
	return out, err
}

// phaseMs picks one phase's sequencer-lane time out of a profiler report.
func phaseMs(r obs.Report, ph obs.Phase) float64 {
	for _, t := range r.Phases {
		if t.Phase == ph.String() {
			return t.SequencerMillis
		}
	}
	return 0
}

// phaseMetric names the per-layer metric one profiler phase feeds.
type phaseMetric struct {
	metric string
	phase  obs.Phase
}

// corePhases maps the engine profiler's phases onto the per-layer metrics.
var corePhases = []phaseMetric{
	{"core.partition_ms", obs.PhasePartition},
	{"core.region_build_ms", obs.PhaseRegionBuild},
	{"core.prune_ms", obs.PhasePrune},
	{"core.space_build_ms", obs.PhaseSpaceBuild},
	{"core.sched_ms", obs.PhaseSched},
	{"core.commit_ms", obs.PhaseCommit},
	{"core.determine_ms", obs.PhaseDetermine},
	{"core.emit_ms", obs.PhaseEmit},
}

var parPhases = []phaseMetric{
	{"core.par.prefetch_wait_ms", obs.PhasePrefetch},
	{"core.par.precheck_ms", obs.PhasePrecheck},
	{"core.par.commit_ms", obs.PhaseCommit},
}

// setCoreMetrics reduces a series of traced operations to the core plan and
// core run metrics. Counts come from the last operation; serial workloads
// repeat them exactly on every operation and every run.
func setCoreMetrics(rep *report, ops []tracedSample, parallel bool) {
	n := len(ops)
	if n == 0 {
		return
	}
	col := func(f func(tracedSample) float64) float64 {
		xs := make([]float64, n)
		for i, o := range ops {
			xs[i] = f(o)
		}
		return median(xs)
	}
	rep.set("core.prepare_ms", col(func(o tracedSample) float64 { return o.prepareMs }), n)
	rep.set("core.run_plan_ms", col(func(o tracedSample) float64 { return o.runMs }), n)
	for _, ph := range corePhases {
		ph := ph
		rep.set(ph.metric, col(func(o tracedSample) float64 { return phaseMs(o.phases, ph.phase) }), n)
	}
	// Whatever part of the operation no profiler phase on the sequencer lane
	// accounts for (the emit phase nests inside determine and is excluded
	// from the lane total).
	rep.set("core.unattributed_ms", col(func(o tracedSample) float64 { return o.total - o.phases.SequencerMillis }), n)

	last := ops[n-1]
	st := last.stats
	rep.set("core.regions", float64(last.live), n)
	rep.set("core.regions_pruned", float64(last.pruned), n)
	rep.set("core.join_results", float64(st.JoinResults), n)
	rep.set("core.dom_comparisons", float64(st.DomComparisons), n)
	rep.set("core.mapped_discarded", float64(st.MappedDiscarded), n)
	rep.set("core.results", float64(st.ResultCount), n)
	rep.set("core.regions_dropped", float64(st.RegionsDropped), n)
	rep.set("core.cells_marked", float64(st.CellsMarked), n)
	rep.set("core.fenwick_updates", float64(st.FenwickUpdates), n)
	rep.setRatio("core.dom_per_join", ratio{float64(st.DomComparisons), float64(st.JoinResults), "rows"}, n)
	rep.setRatio("core.survivor_ratio", ratio{float64(st.ResultCount), float64(st.JoinResults), "rows"}, n)

	if parallel {
		for _, ph := range parPhases {
			ph := ph
			rep.set(ph.metric, col(func(o tracedSample) float64 { return phaseMs(o.phases, ph.phase) }), n)
		}
		rep.set("core.par.worker_busy_ms", col(func(o tracedSample) float64 { return o.phases.WorkerMillis }), n)
	}
}

// harness brackets a traced loop with the allocation counters.
type harness struct {
	mem runtime.MemStats
}

func startHarness() *harness {
	h := &harness{}
	runtime.ReadMemStats(&h.mem)
	return h
}

// finish records the allocation counters of the loop and the median time of
// the reference kernel runs interleaved with it: the traced pass reports
// times as measured, and harness.calib_ms beside them says how fast the host
// was (refNominalMs on the reference host).
func (h *harness) finish(rep *report, ops int, sp *speedometer) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if ops > 0 {
		rep.set("harness.alloc_mb_per_op", float64(m.TotalAlloc-h.mem.TotalAlloc)/1e6/float64(ops), ops)
	}
	rep.set("harness.gc_cycles", float64(m.NumGC-h.mem.NumGC), 1)
	rep.setNote("harness.calib_ms", median(sp.ms), len(sp.ms), fmt.Sprintf("reference kernel; %g ms on the reference host", refNominalMs))
}

// engineTraced is the per-layer pass of an engine workload: untraced and
// traced operations alternate (their difference is the profiler's
// overhead), then every layer is called directly on the workload's data.
func engineTraced(w workload, cfg config, tr *tracer) *report {
	rep := newReport(w.name)
	sp := newSpeedometer()
	in, warm, err := engineSetup(w, cfg, rep, sp.k)
	if err != nil {
		rep.op(err)
		return rep
	}
	series := &opSeries{rep: rep, want: digestOf(warm)}
	rep.op(checkAnswer(in.problem, warm))
	hint := len(warm)
	warm = nil
	parallel := w.opts.Workers != 0

	var (
		traced []tracedSample
		serial []float64
	)
	// One round runs every kind of operation once; the order rotates from
	// round to round so that none of them always runs first.
	steps := []func(){
		func() { series.add(engineOp(w.opts, in.problem, hint)) },
		func() {
			ts, err := tracedOp(tr, w.opts, in.problem, hint)
			if series.check(ts.opSample, err) {
				traced = append(traced, ts)
			}
		},
	}
	if parallel {
		// The serial engine on the same inputs: the base of the speedup, and
		// it must emit the same stream.
		opts := w.opts
		opts.Workers = 0
		steps = append(steps, func() {
			s, err := engineOp(opts, in.problem, hint)
			if series.check(s, err) {
				serial = append(serial, s.total)
			}
		})
	}
	h := startHarness()
	before, round := rep.attempted, 0
	cfg.loop(func() {
		for i := range steps {
			steps[(i+round)%len(steps)]()
			sp.tick()
		}
		round++
	})
	h.finish(rep, rep.attempted-before, sp)

	plain := series.total
	series.setConsumer()
	setCoreMetrics(rep, traced, parallel)
	setOverhead(rep, plain, totalsOf(traced))
	if parallel {
		parallelCells(rep, series, in, hint, median(plain), median(serial), len(plain))
	}
	layerCells(rep, tr, w, in, cfg)
	paperCell(rep, tr, w, cfg)
	return rep
}

// totalsOf lists the complete-answer times of traced operations.
func totalsOf(ops []tracedSample) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = o.total
	}
	return xs
}

// setOverhead records what attaching the profiler cost, with both totals.
func setOverhead(rep *report, plain, traced []float64) {
	if len(plain) == 0 || len(traced) == 0 {
		return
	}
	u, t := median(plain), median(traced)
	rep.set("obs.total_untraced_ms", u, len(plain))
	rep.set("obs.total_traced_ms", t, len(traced))
	rep.setNote("obs.overhead_pct", (t-u)/u*100, len(traced), fmt.Sprintf("= (%.6g − %.6g) / %.6g ms", t, u, u))
}

// parallelCells records the parallel pipeline's stage table: workers alone
// (the workload's own configuration), plus committers, plus speculation —
// one operation each for the two stages the workload leaves off.
func parallelCells(rep *report, series *opSeries, in *inputs, hint int, par, serial float64, n int) {
	rep.setRatio("core.par.speedup", ratio{serial, par, "ms"}, n)
	rep.set("core.par.total_ms.w", par, n)
	for _, stage := range []struct {
		metric string
		opts   progxe.Options
	}{
		{"core.par.total_ms.wc", progxe.Options{Workers: -1, Committers: -1}},
		{"core.par.total_ms.wcs", progxe.Options{Workers: -1, Committers: -1, SpeculateRounds: 2}},
	} {
		s, err := engineOp(stage.opts, in.problem, hint)
		if series.check(s, err) {
			rep.set(stage.metric, s.total, 1)
		}
	}
}
