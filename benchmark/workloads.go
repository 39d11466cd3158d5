package main

import (
	"fmt"
	"strings"
	"time"

	"progxe"
)

type kind int

const (
	engineKind kind = iota // in-process progxe.New engine ops
	serveKind              // closed-loop /v1/query clients against progxe.NewServer
	liveKind               // /v1/subscribe reader beside a change-feed writer
)

// workload is one set of inputs the benchmark runs. Sizes are per side; all
// data comes from progxe.GeneratePair seeded from -seed and slot, so two
// workloads sharing a slot run the exact same relations.
type workload struct {
	name  string
	why   string
	kind  kind
	n     int
	dims  int
	dist  progxe.Distribution
	sigma float64
	slot  uint64
	opts  progxe.Options
	paper paperScale
}

// paperScale is an engine workload at the size the paper evaluates: too long
// an operation (1–3 s) to repeat often enough for a steady end-to-end
// number, so the traced pass runs it once and reports it per layer.
type paperScale struct {
	n    int
	opts progxe.Options
}

var workloads = []workload{
	{
		name: "anti_tuple", kind: engineKind, slot: 1,
		n: 20000, dims: 4, dist: progxe.AntiCorrelated, sigma: 0.001,
		paper: paperScale{n: 100000},
		why:   "The paper's hard case, anti-correlated d=4: cell insert/evict and dominance scans over ~0.4M join rows are ~85% of an operation; output-space changes show here.",
	},
	{
		name: "indep_probe", kind: engineKind, slot: 2,
		n: 40000, dims: 4, dist: progxe.Independent, sigma: 0.001,
		paper: paperScale{n: 100000},
		why:   "Same fused join-map-insert loop, but most mapped tuples die on marked cells untested, so join probe, mapping and cell routing dominate.",
	},
	{
		name: "fine_lookahead", kind: engineKind, slot: 3,
		n: 10000, dims: 3, dist: progxe.AntiCorrelated, sigma: 0.001,
		opts:  progxe.Options{Partitioning: progxe.PartitionKD, InputCells: 4},
		paper: paperScale{n: 32000, opts: progxe.Options{Partitioning: progxe.PartitionKD, InputCells: 5}},
		why:   "~4K regions: partition, region build, prune, space build, sched and determine carry three quarters of the run and tuple-level work one quarter.",
	},
	{
		name: "par_tuple", kind: engineKind, slot: 1,
		n: 20000, dims: 4, dist: progxe.AntiCorrelated, sigma: 0.001,
		opts:  progxe.Options{Workers: -1},
		paper: paperScale{n: 100000, opts: progxe.Options{Workers: -1}},
		why:   "anti_tuple's exact inputs through the parallel pipeline (workers only); the roadmap's earn-its-place decision is read off it.",
	},
	{
		name: "serve_mix", kind: serveKind, slot: 4,
		n: 20000, dims: 4, dist: progxe.AntiCorrelated, sigma: 0.001,
		why: "Closed-loop HTTP clients, 8 in 10 requests the hot query and 2 never-seen queries: parse, plan-cache hit vs miss, admission, NDJSON encode and flush.",
	},
	{
		name: "live_churn", kind: liveKind, slot: 5,
		n: 8000, dims: 4, dist: progxe.AntiCorrelated, sigma: 0.001,
		why: "One /v1/subscribe reader beside a writer alternating inserts and deletes: LiveSpace build, apply, retract fan-out, catalog copy-on-write.",
	},
}

// quickDivisor shrinks every workload for the -quick smoke run.
const quickDivisor = 20

// twinDivisor sizes the small twin of an engine workload on which the full
// reference oracle is affordable.
const twinDivisor = 10

func findWorkloads(filter string) ([]workload, error) {
	if filter == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(filter, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// dataSeed derives the generator seed of a workload from the run seed.
func (w workload) dataSeed(seed uint64) uint64 { return seed*16 + w.slot }

func (w workload) spec(seed uint64) progxe.DataSpec {
	return progxe.DataSpec{N: w.n, Dims: w.dims, Distribution: w.dist, Selectivity: w.sigma, Seed: w.dataSeed(seed)}
}

// scaled returns the workload at 1/div of its size, same seed and shape.
func (w workload) scaled(div int) workload {
	w.n /= div
	w.paper.n /= div
	return w
}

// atPaperScale returns the workload's paper-scale twin: same seed, same
// shape, the paper's size and the options that go with it.
func (w workload) atPaperScale() workload {
	w.n, w.opts = w.paper.n, w.paper.opts
	return w
}

// hotQuery is the workload's query: per-dimension sums of the two sides,
// all minimized, as in the paper's evaluation.
func (w workload) hotQuery() string { return sumQuery(w.dims, 1) }

// sumQuery renders the d-dimensional sum query with the right-hand term of
// the first dimension weighted; weight 1 is the hot query, any other weight
// is a different plan-cache key over the same relations.
func sumQuery(d int, weight float64) string {
	var sel, pref []string
	for j := 0; j < d; j++ {
		term := fmt.Sprintf("T.a%d", j)
		if j == 0 && weight != 1 {
			term = fmt.Sprintf("%g*T.a%d", weight, j)
		}
		sel = append(sel, fmt.Sprintf("(R.a%d + %s) AS x%d", j, term, j))
		pref = append(pref, fmt.Sprintf("LOWEST(x%d)", j))
	}
	return "SELECT " + strings.Join(sel, ", ") + " FROM R R, T T WHERE R.jkey = T.jkey PREFERRING " + strings.Join(pref, " AND ")
}

// inputs is a workload's generated data bound to its query.
type inputs struct {
	r, t    *progxe.Relation
	problem *progxe.Problem
}

// generate makes the workload's inputs from the seed: the two relations and
// the hot query compiled over them.
func (w workload) generate(seed uint64) (*inputs, error) {
	r, t, err := progxe.GeneratePair(w.spec(seed))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	p, err := compile(w.hotQuery(), r, t)
	if err != nil {
		return nil, err
	}
	return &inputs{r: r, t: t, problem: p}, nil
}

func compile(sql string, r, t *progxe.Relation) (*progxe.Problem, error) {
	q, err := progxe.ParseQuery(sql)
	if err != nil {
		return nil, fmt.Errorf("parsing query: %w", err)
	}
	p, err := q.Compile(r, t)
	if err != nil {
		return nil, fmt.Errorf("compiling query: %w", err)
	}
	return p, nil
}

// setupRounds is how many times a pass sets its workload up — data
// generation, compilation, server start, registration, warm-up operation —
// to report the median as setup_s.
const setupRounds = 7

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
