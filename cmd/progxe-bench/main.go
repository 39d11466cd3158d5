// Command progxe-bench regenerates the paper's evaluation figures
// (Figs. 10–13): for each figure it runs the corresponding engines over the
// corresponding workload and prints one summary line per engine (first /
// 50% / 90% / 100% of the results) or a total-time-vs-selectivity table.
//
// Usage:
//
//	progxe-bench                  # run every figure at the default scale
//	progxe-bench -figure 11c      # one figure
//	progxe-bench -list            # list figure ids and captions
//	progxe-bench -json out.json   # machine-readable results
//	progxe-bench -check           # evaluate the paper's qualitative claims
//	PROGXE_BENCH_SCALE=4 progxe-bench -figure 13c   # larger workloads
//
// Workload sizes default to laptop scale (the paper used N = 500K on a
// dedicated workstation); PROGXE_BENCH_SCALE multiplies them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"progxe/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progxe-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("progxe-bench", flag.ContinueOnError)
	var (
		figID    = fs.String("figure", "", "run selected figures, comma-separated (e.g. 11f or 11f,13c)")
		list     = fs.Bool("list", false, "list available figures")
		check    = fs.Bool("check", false, "evaluate the paper's qualitative claims against the runs")
		jsonPath = fs.String("json", "", "write machine-readable per-figure results (engine, total-ms, first-ms, DomComparisons) to this file")
		workers  = fs.Int("workers", 0, "additionally run each ProgXe engine with this many parallel workers (adds \"(w=N)\" variants)")
		repeat   = fs.Int("repeat", 1, "run each cell this many times and keep the fastest")
		summary  = fs.String("summary", "", "append a markdown digest (environment + w=N speedup table) to this file — point it at $GITHUB_STEP_SUMMARY in CI")
		obsGate  = fs.Float64("obs-gate", 0, "run Fig 11f with observability fully on and fully off (interleaved, best of -repeat) and fail if on exceeds off by more than this fraction (e.g. 0.02 = 2%)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, f := range bench.Figures() {
			fmt.Printf("%-4s %-11s %s\n", f.ID, f.Kind, f.Caption)
		}
		return nil
	}

	figs := bench.Figures()
	if *figID != "" {
		figs = figs[:0]
		for _, id := range strings.Split(*figID, ",") {
			f, err := bench.FigureByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			figs = append(figs, f)
		}
	}

	start := time.Now()
	var verdicts []bench.CheckResult
	var report bench.JSONReport
	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		if *workers > 0 {
			f.Engines = bench.AddWorkerVariants(f.Engines, *workers)
		}
		runs := bench.RunFigure(f, os.Stdout, *repeat)
		if *check {
			verdicts = append(verdicts, bench.CheckFigure(f, runs)...)
		}
		if *jsonPath != "" || *summary != "" {
			report.AddFigure(f, runs)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, &report); err != nil {
			return err
		}
	}
	if *summary != "" {
		if err := writeSummary(*summary, &report); err != nil {
			return err
		}
	}
	if *check {
		fmt.Println("\n# shape checks")
		failed := 0
		for _, v := range verdicts {
			fmt.Println(v)
			if !v.Holds {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d shape checks failed", failed, len(verdicts))
		}
	}
	if *obsGate > 0 {
		on, off, err := bench.ObsOverhead("11f", *repeat)
		if err != nil {
			return err
		}
		overhead := on/off - 1
		fmt.Printf("\n# observability overhead gate (Fig 11f, best of %d)\n", *repeat)
		fmt.Printf("obs off %.1fms, obs on %.1fms, overhead %+.2f%% (tolerance +%.0f%%)\n",
			off, on, overhead*100, *obsGate*100)
		if overhead > *obsGate {
			return fmt.Errorf("observability overhead %+.2f%% exceeds +%.0f%%", overhead*100, *obsGate*100)
		}
	}
	fmt.Fprintf(os.Stderr, "\n%d figure(s) in %v (scale %.2g)\n",
		len(figs), time.Since(start).Round(time.Millisecond), bench.Scale())
	return nil
}

// writeSummary appends the markdown digest to path (created if absent), the
// append matching how CI jobs accumulate $GITHUB_STEP_SUMMARY.
func writeSummary(path string, report *bench.JSONReport) error {
	out, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bench.WriteSummary(out, report)
	return out.Close()
}

// writeJSON stores the machine-readable report at path.
func writeJSON(path string, report *bench.JSONReport) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
