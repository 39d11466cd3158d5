// Package smj defines the execution model shared by every SkyMapJoin engine
// in this repository: the problem statement (two sources, selections, an
// equi-join, mapping functions, and a Pareto preference — §II-B), the
// progressive result stream, and the engine interface implemented by the
// ProgXe framework (internal/core) and all baselines (internal/baseline).
package smj

import (
	"fmt"

	"progxe/internal/mapping"
	"progxe/internal/preference"
	"progxe/internal/relation"
)

// Problem is a fully specified SkyMapJoin query over materialized inputs:
//
//	SELECT <maps as output dims>
//	FROM Left, Right
//	WHERE Left.joinKey = Right.joinKey AND <selections already applied>
//	PREFERRING <pref over the output dims>
//
// Engines assume selections were applied (see Apply) and that Left/Right are
// immutable for the duration of a run.
type Problem struct {
	Left  *relation.Relation
	Right *relation.Relation
	Maps  *mapping.Set
	Pref  *preference.Pareto
}

// Validate checks structural consistency: the preference arity must match
// the mapping arity, and every mapping attribute reference must be within
// the corresponding schema.
func (p *Problem) Validate() error {
	if p.Left == nil || p.Right == nil {
		return fmt.Errorf("smj: problem needs both input relations")
	}
	if p.Maps == nil {
		return fmt.Errorf("smj: problem needs a mapping set")
	}
	if p.Pref == nil {
		return fmt.Errorf("smj: problem needs a preference")
	}
	if p.Pref.Dims() != p.Maps.Dims() {
		return fmt.Errorf("smj: preference has %d dimensions but mapping produces %d", p.Pref.Dims(), p.Maps.Dims())
	}
	for _, side := range []mapping.Side{mapping.Left, mapping.Right} {
		arity := p.Left.Schema.Arity()
		if side == mapping.Right {
			arity = p.Right.Schema.Arity()
		}
		for _, idx := range p.Maps.UsedAttrs(side) {
			if idx < 0 || idx >= arity {
				return fmt.Errorf("smj: mapping references %s[%d] but side has arity %d", side, idx, arity)
			}
		}
	}
	return nil
}

// Canonicalized returns a problem equivalent to p in which every output
// dimension is minimized: dimensions the preference maximizes are negated in
// the mapping functions. Engines that reason in minimized space (all of
// them) run on the canonical problem; emitted vectors are converted back by
// Decanonicalize.
func (p *Problem) Canonicalized() (*Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Pref.Canonical() {
		return p, nil
	}
	funcs := make([]mapping.Func, p.Maps.Dims())
	attrs := p.Pref.Attributes()
	for j := 0; j < p.Maps.Dims(); j++ {
		f := p.Maps.Func(j)
		if attrs[j].Order == preference.Highest {
			f = mapping.Func{Name: f.Name, Expr: mapping.Scale{Factor: -1, Of: f.Expr}}
		}
		funcs[j] = f
	}
	ms, err := mapping.NewSet(funcs...)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Left:  p.Left,
		Right: p.Right,
		Maps:  ms,
		Pref:  preference.AllLowest(p.Pref.Dims()),
	}, nil
}

// Decanonicalize converts a canonical (minimized) output vector back to the
// original orientation of pref, in place, and returns it.
func Decanonicalize(pref *preference.Pareto, v []float64) []float64 {
	for j, a := range pref.Attributes() {
		if a.Order == preference.Highest {
			v[j] = -v[j]
		}
	}
	return v
}

// Result is one skyline result: the identifiers of the joined pair and the
// mapped output vector (in the original preference orientation).
//
// Out is owned by the engine and must be treated as read-only: engines may
// hand out internal buffers that stay live for the rest of the run (the
// ProgXe core aliases its arena-backed survivor vectors, which later
// dominance tests still read). It is safe to retain Out indefinitely;
// callers that want to modify the values must clone the slice first.
type Result struct {
	LeftID  int64
	RightID int64
	Out     []float64
}

// Sink receives progressively emitted results. Emit is called once per
// result, in emission order; results emitted early are guaranteed by the
// engine to belong to the final skyline. Sinks must not mutate Result.Out
// (see Result).
type Sink interface {
	Emit(Result)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Result)

// Emit implements Sink.
func (f SinkFunc) Emit(r Result) { f(r) }

// Collector is a Sink that stores every emitted result in order.
type Collector struct {
	Results []Result
}

// Emit implements Sink.
func (c *Collector) Emit(r Result) { c.Results = append(c.Results, r) }

// Stats summarizes one engine run. Engines fill the fields they can; zero
// means "not tracked".
type Stats struct {
	JoinResults     int // join pairs materialized
	MappedDiscarded int // mapped tuples discarded without any dominance test
	DomComparisons  int // pairwise dominance comparisons performed
	ResultCount     int // results emitted
	Regions         int // output regions formed (ProgXe engines)
	RegionsPruned   int // regions eliminated by look-ahead (ProgXe engines)
	RegionsDropped  int // regions discarded during execution (ProgXe engines)
	CellsMarked     int // output cells marked non-contributing (ProgXe engines)
	PushPruned      int // source tuples removed by partial push-through

	// FenwickUpdates is inert: nothing counts into it. It stays while the
	// benchmark reports it as core.fenwick_updates.
	FenwickUpdates int
}

// Engine evaluates a SkyMapJoin problem, streaming results to sink.
type Engine interface {
	// Name identifies the engine in benchmark output (e.g. "ProgXe+").
	Name() string
	// Run evaluates the problem. Results emitted to sink before Run returns
	// are complete and correct: exactly the skyline of the mapped join.
	Run(p *Problem, sink Sink) (Stats, error)
}

// Apply returns copies of the problem's relations with the given selection
// predicates applied (nil predicates keep everything). Query planning in the
// paper pushes selections below everything else; engines receive
// pre-filtered inputs.
func Apply(p *Problem, leftPred, rightPred relation.Predicate) *Problem {
	out := *p
	if leftPred != nil {
		out.Left = p.Left.Select(leftPred)
	}
	if rightPred != nil {
		out.Right = p.Right.Select(rightPred)
	}
	return &out
}

// Key returns a stable identity for a result pair, used by tests to compare
// result sets across engines.
func (r Result) Key() [2]int64 { return [2]int64{r.LeftID, r.RightID} }
