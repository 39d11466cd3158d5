// Command benchmark is the repository's measuring instrument: six
// paper-scale workloads, the progressiveness metrics their consumer
// observes, and per-layer cells from a traced pass. It claims nothing; every
// later claim is measured with it. See README.md in this directory.
//
//	go run ./benchmark -seed 1                     all workloads, untraced then traced pass
//	go run ./benchmark -workload anti_tuple -trace 0 -seconds 18 -seed 3
//	go run ./benchmark -aa                         the untraced pass twice, compared against the bounds
//	go run ./benchmark -quick                      tiny inputs, seconds in total
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is the measured window of one pass over one workload;
// BENCHMARK.json's run_seconds repeats it.
const defaultSeconds = 18

// quickSeconds is the window of a -quick run.
const quickSeconds = 2

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		filter  = fs.String("workload", "", "comma-separated workloads to run (default all)")
		seed    = fs.Uint64("seed", 1, "every input is generated from this seed")
		seconds = fs.Float64("seconds", defaultSeconds, "measured window per workload and pass")
		trace   = fs.Int("trace", -1, "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), -1 = both")
		aa      = fs.Bool("aa", false, "run the untraced pass twice and compare the two against the bounds")
		quick   = fs.Bool("quick", false, "smoke run: inputs ÷ 20, two operations per loop, 2 s windows, no bounds")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace < -1 || *trace > 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	ws, err := findWorkloads(*filter)
	if err != nil {
		return err
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, clients: procs, outDir: *outDir}
	if *quick {
		cfg.seconds = quickSeconds
		for i := range ws {
			ws[i] = ws[i].scaled(quickDivisor)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g quick=%v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), procs, cfg.seed, cfg.seconds, cfg.quick)

	if *aa {
		return runAA(ws, cfg, stdout)
	}
	ok := true
	var last resultLine
	file := resultFile{Env: environment(cfg)}
	for pass := 0; pass <= 1; pass++ {
		if *trace >= 0 && *trace != pass {
			continue
		}
		for _, w := range ws {
			rep, defs := runPass(w, cfg, pass)
			rep.print(stdout, defs)
			last = rep.result(defs, pass == 0)
			ok = ok && last.Correct
			file.add(w.name, pass, last)
		}
	}
	if err := file.write(filepath.Join(cfg.outDir, "result.json")); err != nil {
		return err
	}
	// The last line of standard output is the result of the last pass run;
	// with one workload and one pass it is the whole answer.
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !ok {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// runPass runs one pass over one workload: pass 0 untraced, pass 1 traced
// (its spans go to trace-<workload>.json).
func runPass(w workload, cfg config, pass int) (*report, []metricDef) {
	if pass == 0 {
		switch w.kind {
		case serveKind:
			return serveUntraced(w, cfg), endToEnd
		case liveKind:
			return liveUntraced(w, cfg), endToEnd
		default:
			return engineUntraced(w, cfg), endToEnd
		}
	}
	tr := newTracer()
	var rep *report
	switch w.kind {
	case serveKind:
		rep = serveTraced(w, cfg, tr)
	case liveKind:
		rep = liveTraced(w, cfg, tr)
	default:
		rep = engineTraced(w, cfg, tr)
	}
	rep.op(tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")))
	return rep, perLayer
}

// resultFile is what result.json holds: the environment and every pass's
// result line, keyed by workload.
type resultFile struct {
	Env      map[string]any        `json:"env"`
	Untraced map[string]resultLine `json:"untraced,omitempty"`
	Traced   map[string]resultLine `json:"traced,omitempty"`
}

func (f *resultFile) add(workload string, pass int, r resultLine) {
	m := &f.Untraced
	if pass == 1 {
		m = &f.Traced
	}
	if *m == nil {
		*m = map[string]resultLine{}
	}
	(*m)[workload] = r
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func environment(cfg config) map[string]any {
	return map[string]any{
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": cfg.seed, "seconds": cfg.seconds, "quick": cfg.quick,
	}
}

// runAA runs the untraced pass twice over the same code — workloads in
// order, then in reverse — and prints each end-to-end metric's relative
// difference beside its bound. Outside -quick, a difference past its bound
// fails the run: the benchmark cannot then resolve a regression of that size.
func runAA(ws []workload, cfg config, stdout io.Writer) error {
	first, second := make([]*report, len(ws)), make([]*report, len(ws))
	for i, w := range ws {
		first[i], _ = runPass(w, cfg, 0)
	}
	for i := len(ws) - 1; i >= 0; i-- {
		second[i], _ = runPass(ws[i], cfg, 0)
	}
	ok := true
	for i, w := range ws {
		a, b := first[i], second[i]
		for _, r := range []*report{a, b} {
			r.print(stdout, endToEnd)
			ok = ok && r.correct()
		}
		for _, d := range endToEnd {
			va, vb := a.vals[d.Name].V, b.vals[d.Name].V
			diff := relDiff(va, vb)
			verdict := "within"
			if diff > d.Bound {
				verdict = "EXCEEDS"
				ok = ok && cfg.quick
			}
			fmt.Fprintf(stdout, "%s %s A/A %.6g vs %.6g %s: differs by %.2f%% of the first, %s the %.0f%% bound\n",
				w.name, d.Name, va, vb, d.Unit, diff*100, verdict, d.Bound*100)
		}
	}
	if !ok {
		return fmt.Errorf("A/A run failed: a correctness check or a bound did not hold")
	}
	return nil
}
