package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef is one entry of the benchmark's metric catalogue. BENCHMARK.json
// repeats name, unit, direction and bound; the test in this package keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ttfr_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "total_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ttfr_share", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "tt50_share", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "tt90_share", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer lists the single-layer metrics of the traced pass, named
// <layer>.<metric>; README.md says which end-to-end metric each should move
// on which workload. A workload that never crosses a layer reports that
// layer's metrics as 0 in the result line and leaves them out of its printed
// rows.
var perLayer = []metricDef{
	{Name: "datagen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "query.parse_compile_us", Unit: "us", Better: "lower"},
	{Name: "join.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "join.rows", Unit: "count", Better: "lower"},
	{Name: "mapping.map_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.region_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prune_ms", Unit: "ms", Better: "lower"},
	{Name: "core.regions", Unit: "count", Better: "lower"},
	{Name: "core.regions_pruned", Unit: "count", Better: "higher"},

	{Name: "grid.dominated_rects_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.rects", Unit: "count", Better: "lower"},
	{Name: "sched.setup_release_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.edges", Unit: "count", Better: "lower"},
	{Name: "sched.rank_refreshes", Unit: "count", Better: "lower"},

	{Name: "core.run_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.space_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sched_ms", Unit: "ms", Better: "lower"},
	{Name: "core.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.determine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.join_results", Unit: "count", Better: "lower"},
	{Name: "core.dom_comparisons", Unit: "count", Better: "lower"},
	{Name: "core.mapped_discarded", Unit: "count", Better: "higher"},
	{Name: "core.results", Unit: "count", Better: "lower"},
	{Name: "core.regions_dropped", Unit: "count", Better: "higher"},
	{Name: "core.cells_marked", Unit: "count", Better: "higher"},
	{Name: "core.fenwick_updates", Unit: "count", Better: "lower"},
	{Name: "core.dom_per_join", Unit: "ratio", Better: "lower"},
	{Name: "core.survivor_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},

	{Name: "core.par.prefetch_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par.precheck_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par.worker_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par.speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.par.total_ms.w", Unit: "ms", Better: "lower"},
	{Name: "core.par.total_ms.wc", Unit: "ms", Better: "lower"},
	{Name: "core.par.total_ms.wcs", Unit: "ms", Better: "lower"},

	{Name: "live.build_ms", Unit: "ms", Better: "lower"},
	{Name: "live.build_vs_batch", Unit: "ratio", Better: "lower"},
	{Name: "live.insert_apply_us", Unit: "us", Better: "lower"},
	{Name: "live.insert_apply_p90_us", Unit: "us", Better: "lower"},
	{Name: "live.delete_apply_us", Unit: "us", Better: "lower"},
	{Name: "live.delete_apply_p90_us", Unit: "us", Better: "lower"},
	{Name: "live.comparisons", Unit: "count", Better: "lower"},
	{Name: "live.results", Unit: "count", Better: "lower"},
	{Name: "live.retractions", Unit: "count", Better: "lower"},

	{Name: "server.plan_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.ttfr_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ttfr_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ttfr_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.total_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ttfr_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.coalesced_runs", Unit: "count", Better: "higher"},
	{Name: "server.resident_growth_mb", Unit: "MB", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.change_visible_ms", Unit: "ms", Better: "lower"},
	{Name: "server.change_visible_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.change_visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.change_post_ms", Unit: "ms", Better: "lower"},
	{Name: "server.post_to_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "server.insert_visible_ms", Unit: "ms", Better: "lower"},
	{Name: "server.delete_visible_ms", Unit: "ms", Better: "lower"},
	{Name: "server.records_per_change", Unit: "ratio", Better: "lower"},

	{Name: "consumer.tt50_ms", Unit: "ms", Better: "lower"},
	{Name: "consumer.tt90_ms", Unit: "ms", Better: "lower"},

	{Name: "paper.total_ms", Unit: "ms", Better: "lower"},
	{Name: "paper.ttfr_ms", Unit: "ms", Better: "lower"},
	{Name: "paper.join_results", Unit: "count", Better: "lower"},
	{Name: "paper.results", Unit: "count", Better: "lower"},

	{Name: "feed.parse_line_ns", Unit: "ns", Better: "lower"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.total_untraced_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.total_traced_ms", Unit: "ms", Better: "lower"},

	{Name: "harness.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V    float64
	N    int
	Note string // printed after the row: a ratio's base, a tail caveat
}

// report collects what one pass over one workload measured.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	vals      map[string]value
	baseMB    float64 // heap the process held when the pass began
}

func newReport(workload string) *report {
	return &report{workload: workload, vals: map[string]value{}, baseMB: residentMB()}
}

// setResident records resident_mb: the heap reachable now beyond what the
// process held when the pass began (next to nothing in a process of its own,
// the leftovers of earlier workloads in a run over several) and beyond the
// benchmark's own reference kernels.
func (r *report) setResident(kernels ...*refKernel) {
	r.set("resident_mb", residentMB(kernels...)-r.baseMB, 1)
}

func (r *report) set(name string, v float64, n int) { r.vals[name] = value{V: v, N: n} }

func (r *report) setNote(name string, v float64, n int, note string) {
	r.vals[name] = value{V: v, N: n, Note: note}
}

// setRatio records a ratio together with the two numbers it was formed from.
func (r *report) setRatio(name string, q ratio, n int) {
	r.vals[name] = value{V: q.value(), N: n, Note: q.base()}
}

// setScaled records a measured time (or, with the inverse speed, a rate)
// brought to the reference host's speed, beside the raw reading and the
// kernel time it was scaled by.
func (r *report) setScaled(name string, raw float64, speed ratio, n int) {
	r.vals[name] = value{V: raw * speed.value(), N: n,
		Note: fmt.Sprintf("= %.6g measured × host speed %.4g %s", raw, speed.value(), speed.base())}
}

// maxProblems caps the failure messages a report keeps; the count of failed
// operations is never capped.
const maxProblems = 20

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes the rows of the catalogue entries this report measured.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s n=%d", r.workload, d.Name, formatValue(v.V), d.Unit, v.N)
		if v.Note != "" {
			line += "  (" + v.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s failed_share %.6g ratio n=%d  (= %d / %d ops)\n",
		r.workload, failedShare(r.failed, r.attempted), r.attempted, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", r.workload, p)
	}
}

// formatValue prints counts with all their digits and everything else with
// six significant ones; the result line and result.json carry full precision.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// resultLine is the last line the benchmark prints for a pass.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the report against a catalogue. An end-to-end metric the
// pass did not measure makes the result incorrect; a per-layer metric of a
// layer the workload never crosses reads 0.
func (r *report) result(defs []metricDef, required bool) resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if (!ok && required) || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			out.Correct = false
			v.V = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v.V, Unit: d.Unit}
	}
	return out
}
