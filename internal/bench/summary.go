package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// WriteSummary renders a markdown digest of a JSON report: the run
// environment and, when the report carries "(w=N)" variants alongside their
// serial runs, the measured multicore speedup per cell — the tables the CI
// multicore job publishes into its step summary. Cells are matched by
// figure, workload, and base engine name, with the worker count parsed back
// off the engine name; the serial run is the denominator, so a value above
// 1.00× is a win for the workers stage.
func WriteSummary(w io.Writer, r *JSONReport) {
	scale, procs := r.Scale, r.GoMaxProcs
	if scale == 0 {
		scale = Scale()
	}
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(w, "## progxe-bench results (scale %.2g, GOMAXPROCS %d)\n\n", scale, procs)

	// One arm of a cell: the measured quantities of a serial or parallel run.
	type arm struct {
		ms, tt50, tt90  float64
		seqMS, workerMS float64
		commitFrc       float64
		workers         int
		valid           bool
	}
	type cell struct {
		figure, engine, workload string
		serial, parallel         arm
	}
	byKey := map[string]*cell{}
	var order []string
	for _, f := range r.Figures {
		for _, run := range f.Runs {
			if run.Error != "" || run.TotalMS <= 0 {
				continue
			}
			// Strip the variant suffix the derived specs append.
			base, isParallel := run.Engine, false
			if run.Workers > 0 {
				base, isParallel = strings.CutSuffix(run.Engine, fmt.Sprintf(" (w=%d)", run.Workers))
				if !isParallel {
					continue // a worker variant under an unexpected name
				}
			}
			key := fmt.Sprintf("%s|%s|%s|%d|%g", f.Figure, base, run.Dist, run.N, run.Sigma)
			c := byKey[key]
			if c == nil {
				c = &cell{figure: f.Figure, engine: base,
					workload: fmt.Sprintf("%s d=%d n=%d σ=%g", run.Dist, run.Dims, run.N, run.Sigma)}
				byKey[key] = c
				order = append(order, key)
			}
			a := &c.serial
			if isParallel {
				a = &c.parallel
			}
			*a = arm{
				ms: run.TotalMS, tt50: run.TT50MS, tt90: run.TT90MS,
				seqMS: run.SeqMS, workerMS: run.WorkerMS, commitFrc: run.SerialCommitFrac,
				workers: run.Workers, valid: true,
			}
		}
	}

	var rows []*cell
	workers := 0
	for _, key := range order {
		c := byKey[key]
		if c.serial.valid && c.parallel.valid {
			rows = append(rows, c)
			workers = c.parallel.workers
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "No serial/parallel run pairs to compare (run with -workers N for the speedup table).")
		return
	}

	fmt.Fprintf(w, "### Multicore speedup (w=%d vs serial)\n\n", workers)
	fmt.Fprintln(w, "| Figure | Engine | Workload | serial ms | parallel ms | speedup | TT-50% ms (s→p) | TT-90% ms (s→p) |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|")
	speedups := make([]float64, 0, len(rows))
	for _, c := range rows {
		s := c.serial.ms / c.parallel.ms
		speedups = append(speedups, s)
		fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.2f× | %.1f→%.1f | %.1f→%.1f |\n",
			c.figure, c.engine, c.workload, c.serial.ms, c.parallel.ms, s,
			c.serial.tt50, c.parallel.tt50, c.serial.tt90, c.parallel.tt90)
	}
	sort.Float64s(speedups)
	median := speedups[len(speedups)/2]
	if len(speedups)%2 == 0 {
		median = (speedups[len(speedups)/2-1] + speedups[len(speedups)/2]) / 2
	}
	fmt.Fprintf(w, "\nmedian %.2f×, best %.2f×, worst %.2f× over %d cells\n",
		median, speedups[len(speedups)-1], speedups[0], len(speedups))

	// Serial-vs-parallel attribution: the profiler's first-party numbers
	// for the parallel runs, answering how much of the wall clock is the
	// sequencer's serial commit+determine section versus work the pool
	// already offloads.
	var att []*cell
	for _, c := range rows {
		if c.parallel.seqMS > 0 {
			att = append(att, c)
		}
	}
	if len(att) > 0 {
		fmt.Fprintf(w, "\n### Serial-vs-parallel attribution (w=%d, profiler)\n\n", workers)
		fmt.Fprintln(w, "| Figure | Engine | Workload | sequencer ms | worker ms | serial commit share |")
		fmt.Fprintln(w, "|---|---|---|---:|---:|---:|")
		fracs := make([]float64, 0, len(att))
		for _, c := range att {
			fracs = append(fracs, c.parallel.commitFrc)
			fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.1f%% |\n",
				c.figure, c.engine, c.workload, c.parallel.seqMS, c.parallel.workerMS, c.parallel.commitFrc*100)
		}
		sort.Float64s(fracs)
		fmt.Fprintf(w, "\nserial commit+determine share of sequencer time: median %.1f%% over %d cells\n",
			100*fracs[len(fracs)/2], len(fracs))
	}
}
