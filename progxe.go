// Package progxe is a progressive evaluation engine for multi-criteria
// decision support queries — a from-scratch reproduction of
//
//	Raghavan & Rundensteiner, "Progressive Result Generation for
//	Multi-Criteria Decision Support Queries", ICDE 2010
//	(WPI-CS-TR-09-05).
//
// It evaluates SkyMapJoin queries — an equi-join of two sources whose
// results are transformed by user-defined mapping functions and then
// filtered to the Pareto-optimal (skyline) subset — while emitting each
// result as soon as it is provably part of the final answer, instead of
// blocking until the end of query processing.
//
// The package is a facade over the implementation packages: build a
// Problem (directly or by parsing the paper's PREFERRING SQL dialect),
// pick an Engine, and Run it with a Sink that consumes results as they
// stream out:
//
//	q, _ := progxe.ParseQuery(`
//	    SELECT R.id, T.id, (R.price + T.cost) AS total, (R.time + T.delay) AS delay
//	    FROM Suppliers R, Transporters T
//	    WHERE R.region = T.region
//	    PREFERRING LOWEST(total) AND LOWEST(delay)`)
//	p, _ := q.Compile(suppliers, transporters)
//	e := progxe.New(progxe.Options{})
//	e.Run(p, progxe.SinkFunc(func(r progxe.Result) {
//	    fmt.Println(r.LeftID, r.RightID, r.Out) // guaranteed final
//	}))
//
// Every engine also implements ContextEngine, so runs are cancellable via
// RunContext / StreamContext. On top of that sits the service layer
// (NewServer, cmd/progxe-serve): an HTTP subsystem with a relation catalog
// that streams results progressively as NDJSON or Server-Sent Events, with
// admission control and per-run cancellation on client disconnect — making
// progressiveness an end-to-end property rather than an in-process one.
package progxe

import (
	"context"
	"fmt"

	"progxe/internal/baseline"
	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/query"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// Core query-model types.
type (
	// Problem is a fully specified SkyMapJoin query over two relations.
	Problem = smj.Problem
	// Result is one emitted skyline result.
	Result = smj.Result
	// Sink consumes progressively emitted results.
	Sink = smj.Sink
	// SinkFunc adapts a function to Sink.
	SinkFunc = smj.SinkFunc
	// Collector is a Sink storing all results in order.
	Collector = smj.Collector
	// Stats summarizes an engine run.
	Stats = smj.Stats
	// Engine evaluates a Problem, streaming results to a Sink.
	Engine = smj.Engine
	// ContextEngine is an Engine with cooperative cancellation. All engines
	// constructed by this package implement it.
	ContextEngine = smj.ContextEngine
)

// RunContext evaluates p with e under ctx: ContextEngines abort promptly
// with ctx.Err() when the context is canceled or times out; plain Engines
// run to completion before the context error is reported.
func RunContext(ctx context.Context, e Engine, p *Problem, sink Sink) (Stats, error) {
	return smj.RunContext(ctx, e, p, sink)
}

// Prepared is a reusable snapshot of the plan-construction phases of a
// ProgXe run (input partitioning, region pairing, look-ahead pruning). It is
// immutable once built, so one Prepared plan can back any number of
// concurrent RunPreparedContext evaluations — the serve layer's query-plan
// cache is built on exactly this.
type Prepared = core.Prepared

// PlanEngine is implemented by engines whose plan-construction phases can be
// snapshotted and reused across runs — the ProgXe family. Baselines evaluate
// monolithically and do not implement it.
type PlanEngine interface {
	// PrepareContext runs the plan-construction phases only.
	PrepareContext(ctx context.Context, p *Problem) (*Prepared, error)
	// RunPlanContext evaluates a prepared plan under the RunContext contract:
	// byte-identical emissions, minus the already-paid plan construction.
	RunPlanContext(ctx context.Context, pl *Prepared, sink Sink) (Stats, error)
}

// PrepareContext snapshots the plan-construction phases of e for p, when the
// engine supports it (see PlanEngine); ok reports support.
func PrepareContext(ctx context.Context, e Engine, p *Problem) (pl *Prepared, ok bool, err error) {
	pe, ok := e.(PlanEngine)
	if !ok {
		return nil, false, nil
	}
	pl, err = pe.PrepareContext(ctx, p)
	return pl, true, err
}

// RunPreparedContext evaluates a prepared plan with e, which must be the
// preparing engine or one configured with the same plan-affecting options.
func RunPreparedContext(ctx context.Context, e Engine, pl *Prepared, sink Sink) (Stats, error) {
	pe, ok := e.(PlanEngine)
	if !ok {
		return Stats{}, fmt.Errorf("progxe: engine %s cannot run prepared plans", e.Name())
	}
	return pe.RunPlanContext(ctx, pl, sink)
}

// Relational substrate types.
type (
	// Relation is an in-memory table.
	Relation = relation.Relation
	// Schema describes a relation's columns.
	Schema = relation.Schema
	// Tuple is one row.
	Tuple = relation.Tuple
)

// Mapping and preference types.
type (
	// MapSet is the set of mapping functions of the Map operator.
	MapSet = mapping.Set
	// MapFunc is one named mapping function.
	MapFunc = mapping.Func
	// Preference is a Pareto preference over the output dimensions.
	Preference = preference.Pareto
)

// Options configures the ProgXe engine (grid resolutions, ordering policy,
// push-through).
type Options = core.Options

// Ordering selects the region-ordering policy of the ProgXe engine.
type Ordering = core.Ordering

// Ordering policies (see core.Ordering).
const (
	OrderProgressive = core.OrderProgressive
	OrderRandom      = core.OrderRandom
	OrderArrival     = core.OrderArrival
)

// Partitioning selects the input space-partitioning structure.
type Partitioning = core.Partitioning

// Input partitioning methods.
const (
	PartitionGrid = core.PartitionGrid
	PartitionKD   = core.PartitionKD
)

// New returns the ProgXe progressive engine. The zero Options select the
// paper's full configuration: output-space look-ahead, ProgOrder ordering,
// ProgDetermine early output, automatic grid sizing. Set
// Options.PushThrough for the ProgXe+ variant.
func New(opts Options) Engine { return core.New(opts) }

// NewJFSL returns the blocking join-first skyline-later baseline;
// pushThrough selects the JF-SL+ variant.
func NewJFSL(pushThrough bool) Engine {
	return &baseline.JFSL{PushThrough: pushThrough}
}

// NewSSMJ returns the Skyline-Sort-Merge-Join baseline of Jin et al.;
// strict defers all output to the end, guaranteeing emission correctness
// under mapping functions.
func NewSSMJ(strict bool) Engine { return &baseline.SSMJ{Strict: strict} }

// NewSAJ returns the Fagin-style sorted-access baseline.
func NewSAJ() Engine { return &baseline.SAJ{} }

// ParseQuery parses a query in the paper's PREFERRING SQL dialect.
func ParseQuery(sql string) (*query.Query, error) { return query.Parse(sql) }

// NewSchema declares a relation schema: numeric attribute columns plus a
// join-key column.
func NewSchema(name string, attrs []string, joinAttr string) (*Schema, error) {
	return relation.NewSchema(name, attrs, joinAttr)
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// Synthetic data generation (the evaluation workloads of §VI-A).
type (
	// DataSpec describes a synthetic relation.
	DataSpec = datagen.Spec
	// Distribution selects the attribute correlation regime.
	Distribution = datagen.Distribution
)

// Attribute correlation regimes.
const (
	Independent    = datagen.Independent
	Correlated     = datagen.Correlated
	AntiCorrelated = datagen.AntiCorrelated
)

// Generate produces a synthetic relation.
func Generate(spec DataSpec) (*Relation, error) { return datagen.Generate(spec) }

// GeneratePair produces the two-source benchmark workload R, T.
func GeneratePair(spec DataSpec) (*Relation, *Relation, error) {
	return datagen.GeneratePair(spec)
}

// AllLowest returns a Pareto preference minimizing d dimensions.
func AllLowest(d int) *Preference { return preference.AllLowest(d) }

// Oracle evaluates the problem with the reference blocking plan and returns
// the complete result set — useful for validating custom engines or sinks.
func Oracle(p *Problem) ([]Result, error) { return baseline.Oracle(p) }
