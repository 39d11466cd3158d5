// Command progxe evaluates a SkyMapJoin query over two CSV files and
// streams the skyline results progressively to stdout, each as soon as it
// is provably part of the final answer.
//
// Usage:
//
//	progxe -left suppliers.csv -right transporters.csv \
//	       -query 'SELECT (R.price + T.cost) AS total, (2 * R.time + T.delay) AS delay
//	               FROM Suppliers R, Transporters T
//	               WHERE R.region = T.region
//	               PREFERRING LOWEST(total) AND LOWEST(delay)'
//
// CSV files carry a header row: id,<attr...>,<joinAttr> (see progxe-datagen
// to produce synthetic inputs). The -engine flag switches between the
// progressive engine and the blocking baselines for comparison; -stats
// prints run statistics to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"progxe"
	"progxe/internal/core"
	"progxe/internal/engines"
	"progxe/internal/obs"
	"progxe/internal/query"
	"progxe/internal/relation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progxe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("progxe", flag.ContinueOnError)
	var (
		leftPath  = fs.String("left", "", "CSV file for the first (left) source")
		rightPath = fs.String("right", "", "CSV file for the second (right) source")
		queryStr  = fs.String("query", "", "SkyMapJoin query in the PREFERRING dialect")
		queryFile = fs.String("query-file", "", "read the query from a file instead")
		engine    = fs.String("engine", "progxe", "engine: "+strings.Join(engines.Names(), " | "))
		inCells   = fs.Int("input-cells", 0, "input grid cells per used dimension (0 = auto); a grid of more than 2^21 cells in all is refused")
		outCells  = fs.Int("output-cells", 0, "output grid cells per dimension (0 = auto); a grid of more than 2^21 cells in all (k^d) is refused")
		workers   = fs.Int("workers", 0, "parallel region-processing workers (ProgXe engines; 0 = serial, -1 = GOMAXPROCS); results are identical at any count")
		stats     = fs.Bool("stats", false, "print run statistics to stderr")
		quiet     = fs.Bool("quiet", false, "suppress per-result output (timing only)")
		explain   = fs.Bool("explain", false, "print the look-ahead plan and exit without executing")
		trace     = fs.Bool("trace", false, "print engine trace events to stderr (ProgXe engines only)")
		traceOut  = fs.String("trace-out", "", "write a Chrome-trace JSON document of the run to this file (view at ui.perfetto.dev)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leftPath == "" || *rightPath == "" {
		return fmt.Errorf("both -left and -right CSV files are required")
	}
	if (*queryStr == "") == (*queryFile == "") {
		return fmt.Errorf("exactly one of -query or -query-file is required")
	}
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		*queryStr = string(b)
	}

	left, err := loadCSV(*leftPath)
	if err != nil {
		return err
	}
	right, err := loadCSV(*rightPath)
	if err != nil {
		return err
	}

	q, err := query.Parse(*queryStr)
	if err != nil {
		return err
	}
	p, err := q.Compile(left, right)
	if err != nil {
		return err
	}

	if *explain {
		plan, err := core.Explain(p, core.Options{InputCells: *inCells, OutputCells: *outCells})
		if err != nil {
			return err
		}
		fmt.Println(plan)
		return nil
	}

	// Observability: the profiler is free on the hot path, so it is on
	// whenever something consumes it (-stats phase breakdown, -trace-out).
	var prof *obs.Profiler
	var tracer *core.TraceRecorder
	if *stats || *traceOut != "" {
		prof = obs.NewProfiler()
	}
	if *traceOut != "" {
		prof.EnableSpans()
		tracer = core.NewTraceRecorder(prof.Epoch())
	}

	e, err := pickEngine(*engine, *inCells, *outCells, *workers, *trace, prof, tracer)
	if err != nil {
		return err
	}

	names := p.Maps.Names()
	start := time.Now()
	timeline := obs.NewTimeline(start)
	count := 0
	sink := progxe.SinkFunc(func(r progxe.Result) {
		timeline.Observe()
		count++
		if *quiet {
			return
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "[%8.3fms] left=%d right=%d", float64(time.Since(start).Microseconds())/1000, r.LeftID, r.RightID)
		for j, v := range r.Out {
			fmt.Fprintf(&sb, " %s=%g", names[j], v)
		}
		fmt.Println(sb.String())
	})
	st, err := e.Run(p, sink)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("# %d results in %v (%s)\n", count, elapsed.Round(time.Microsecond), e.Name())
	if *stats {
		fmt.Fprintf(os.Stderr, "join results:        %d\n", st.JoinResults)
		fmt.Fprintf(os.Stderr, "dominance tests:     %d\n", st.DomComparisons)
		fmt.Fprintf(os.Stderr, "discarded unmapped:  %d\n", st.MappedDiscarded)
		fmt.Fprintf(os.Stderr, "regions:             %d (pruned %d, dropped %d)\n", st.Regions, st.RegionsPruned, st.RegionsDropped)
		fmt.Fprintf(os.Stderr, "cells marked:        %d\n", st.CellsMarked)
		fmt.Fprintf(os.Stderr, "push-through pruned: %d\n", st.PushPruned)
		if q := timeline.Quantiles(); q.Count > 0 {
			fmt.Fprintf(os.Stderr, "progressiveness:     first=%.3fms p10=%.3fms p50=%.3fms p90=%.3fms last=%.3fms\n",
				q.FirstMillis, q.P10Millis, q.P50Millis, q.P90Millis, q.LastMillis)
		}
		if rep := prof.Report(); len(rep.Phases) > 0 {
			fmt.Fprintf(os.Stderr, "phases:              %s\n", rep)
			if rep.WorkerMillis > 0 {
				fmt.Fprintf(os.Stderr, "serial commit:       %.1f%% of sequencer time\n", rep.SerialCommitFraction*100)
			}
		}
	}
	if *traceOut != "" {
		spans, instants := tracer.Spans()
		doc, err := obs.TraceJSON(append(prof.Spans(), spans...), instants)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open at ui.perfetto.dev)\n", *traceOut)
	}
	return nil
}

func loadCSV(path string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return relation.ReadCSV(name, f)
}

func pickEngine(name string, inCells, outCells, workers int, trace bool, prof *obs.Profiler, tracer *core.TraceRecorder) (progxe.Engine, error) {
	opts := progxe.Options{InputCells: inCells, OutputCells: outCells, Workers: workers, Profiler: prof}
	switch {
	case trace && tracer != nil:
		opts.Trace = func(e core.Event) {
			tracer.Observe(e)
			fmt.Fprintln(os.Stderr, "trace:", e)
		}
	case trace:
		opts.Trace = func(e core.Event) { fmt.Fprintln(os.Stderr, "trace:", e) }
	case tracer != nil:
		opts.Trace = tracer.Observe
	}
	return engines.New(name, opts)
}
