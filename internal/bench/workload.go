// Package bench is the experiment harness for the paper's performance study
// (§VI): workload construction, progressive-output recording, per-figure
// experiment specifications, and series rendering. Every figure of the
// evaluation (Figs. 10–13) has an entry in Figures; cmd/progxe-bench and the
// repository-level benchmarks drive them.
package bench

import (
	"fmt"
	"os"
	"strconv"

	"progxe/internal/baseline"
	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/smj"
)

// Workload is one experiment configuration: the paper's two-source workload
// with |R| = |T| = N, d skyline dimensions, a data distribution, and join
// selectivity σ. The mapping is per-dimension addition, as in §VI-A.
type Workload struct {
	N     int
	Dims  int
	Dist  datagen.Distribution
	Sigma float64
	Seed  uint64
}

// String renders the workload the way the figures caption it.
func (w Workload) String() string {
	return fmt.Sprintf("%s d=%d N=%d σ=%g", w.Dist, w.Dims, w.N, w.Sigma)
}

// Problem materializes the workload into a runnable SkyMapJoin problem.
func (w Workload) Problem() (*smj.Problem, error) {
	r, t, err := datagen.GeneratePair(datagen.Spec{
		N:            w.N,
		Dims:         w.Dims,
		Distribution: w.Dist,
		Selectivity:  w.Sigma,
		Seed:         w.Seed,
	})
	if err != nil {
		return nil, err
	}
	funcs := make([]mapping.Func, w.Dims)
	for j := 0; j < w.Dims; j++ {
		funcs[j] = mapping.Func{
			Name: fmt.Sprintf("x%d", j),
			Expr: mapping.Sum(mapping.A(mapping.Left, j, ""), mapping.A(mapping.Right, j, "")),
		}
	}
	maps, err := mapping.NewSet(funcs...)
	if err != nil {
		return nil, err
	}
	return &smj.Problem{Left: r, Right: t, Maps: maps, Pref: preference.AllLowest(w.Dims)}, nil
}

// EngineSpec names an engine and constructs fresh instances of it, so every
// run starts from clean state. ProgXe-family specs carry their core options
// so worker-count variants can be derived (see WithWorkers); Workers
// records the parallelism the spec runs with, for benchmark reports.
type EngineSpec struct {
	Name    string
	New     func() smj.Engine
	Workers int
	opts    *core.Options // nil for baselines without a parallel path
}

// progxeSpec builds a ProgXe-family spec from core options.
func progxeSpec(name string, opts core.Options) EngineSpec {
	o := opts
	return EngineSpec{
		Name:    name,
		New:     func() smj.Engine { return core.New(o) },
		Workers: o.Workers,
		opts:    &o,
	}
}

// WithWorkers derives a parallel variant of a ProgXe-family spec running
// with n workers, reporting false for engines without a parallel path.
func (s EngineSpec) WithWorkers(n int) (EngineSpec, bool) {
	if s.opts == nil || n <= 0 {
		return s, false
	}
	o := *s.opts
	o.Workers = n
	return progxeSpec(fmt.Sprintf("%s (w=%d)", s.Name, n), o), true
}

// AddWorkerVariants appends a w=n variant for every ProgXe-family spec in
// the list, so one report carries serial and parallel runs side by side.
func AddWorkerVariants(specs []EngineSpec, n int) []EngineSpec {
	out := append([]EngineSpec(nil), specs...)
	for _, s := range specs {
		if v, ok := s.WithWorkers(n); ok {
			out = append(out, v)
		}
	}
	return out
}

// ProgXeEngines returns the four framework variants compared in §VI-B
// (Fig. 10): ProgXe, ProgXe+, and both with random ordering.
func ProgXeEngines() []EngineSpec {
	return []EngineSpec{
		progxeSpec("ProgXe", core.Options{}),
		progxeSpec("ProgXe+", core.Options{PushThrough: true}),
		progxeSpec("ProgXe (No-Order)", core.Options{Ordering: core.OrderRandom, Seed: 1}),
		progxeSpec("ProgXe+ (No-Order)", core.Options{Ordering: core.OrderRandom, PushThrough: true, Seed: 1}),
	}
}

// ComparisonEngines returns the engines of the state-of-the-art comparison
// (§VI-C, Figs. 11–13): ProgXe, ProgXe+ and SSMJ.
func ComparisonEngines() []EngineSpec {
	return []EngineSpec{
		progxeSpec("ProgXe", core.Options{}),
		progxeSpec("ProgXe+", core.Options{PushThrough: true}),
		{Name: "SSMJ", New: func() smj.Engine { return &baseline.SSMJ{} }},
	}
}

// FinePartitionWorkload is the look-ahead-stress configuration: kd-partition
// fanout driven far past the auto-sized partition budgets so the candidate
// region count reaches the 10⁴–10⁵ range where the O(n²) pruning scan stops
// scaling. Anti-correlated data keeps most partition pairs populated
// (near-complete pairing) while spreading the regions along the
// anti-diagonal shell, the regime the look-ahead machinery targets.
func FinePartitionWorkload() Workload {
	return Workload{N: scaled(16000), Dims: 3, Dist: datagen.AntiCorrelated, Sigma: 0.001, Seed: 41}
}

// FinePartitionOptions configures the engine's look-ahead for the
// fine-partition workload: kd median splits with a 5³ = 125 partition
// budget per source, pairing into ≥10⁴ regions.
func FinePartitionOptions() core.Options {
	return core.Options{Partitioning: core.PartitionKD, InputCells: 5}
}

// Scale returns the global workload scale factor from PROGXE_BENCH_SCALE
// (default 1.0). The paper runs N = 500K per source on a dedicated
// workstation; the figure defaults here are laptop-sized, and the scale knob
// lets users grow them toward the paper's sizes.
func Scale() float64 {
	s := os.Getenv("PROGXE_BENCH_SCALE")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 1
	}
	return v
}

// scaled applies the global scale factor to a base cardinality.
func scaled(n int) int {
	v := int(float64(n) * Scale())
	if v < 16 {
		v = 16
	}
	return v
}
