// Package datagen re-implements the de-facto standard synthetic data
// generator for stress-testing skyline algorithms (Börzsönyi, Kossmann,
// Stocker [1]) used by the paper's performance study (§VI-A): independent,
// correlated, and anti-correlated attribute distributions with values in
// [1, 100], plus a join-key generator that realizes a target join
// selectivity σ.
//
// All generation is deterministic given a seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"progxe/internal/relation"
)

// Distribution selects the attribute correlation regime.
type Distribution int8

// Supported distributions.
const (
	Independent Distribution = iota
	Correlated
	AntiCorrelated
)

// String returns the distribution's name as used in the paper's figures.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "independent"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	default:
		return fmt.Sprintf("Distribution(%d)", int8(d))
	}
}

// ParseDistribution parses "independent", "correlated" or "anti-correlated"
// (and the short forms ind/cor/anti).
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "independent", "ind", "indep":
		return Independent, nil
	case "correlated", "cor", "corr":
		return Correlated, nil
	case "anti-correlated", "anti", "anticorrelated", "anticor":
		return AntiCorrelated, nil
	default:
		return 0, fmt.Errorf("datagen: unknown distribution %q", s)
	}
}

// Attribute value range used throughout the paper's experiments.
const (
	AttrMin = 1.0
	AttrMax = 100.0
)

// Spec describes one synthetic relation.
type Spec struct {
	Name         string
	N            int          // cardinality
	Dims         int          // number of skyline-relevant attributes
	Distribution Distribution // correlation regime
	Selectivity  float64      // target join selectivity σ (join domain = ⌈1/σ⌉)
	Seed         uint64       // RNG seed; same seed, same data
}

// JoinDomain returns the join-key domain size realizing σ: keys are drawn
// uniformly from [0, JoinDomain), so two random tuples share a key with
// probability 1/JoinDomain ≈ σ. A σ so small (or NaN) that ⌈1/σ⌉ does not
// fit in an int64 saturates at math.MaxInt64.
func (s Spec) JoinDomain() int64 {
	if s.Selectivity <= 0 {
		return 1 << 30 // effectively no matches
	}
	if s.Selectivity >= 1 {
		return 1
	}
	d := math.Ceil(1 / s.Selectivity)
	if !(d < math.MaxInt64) { // float64(MaxInt64) is 2⁶³, the first value past the range
		return math.MaxInt64
	}
	return int64(d)
}

// Generate produces the relation described by the spec. Attribute columns
// are named a0..a(Dims-1) and the join attribute "jkey".
func Generate(spec Spec) (*relation.Relation, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("datagen: negative cardinality %d", spec.N)
	}
	if spec.Dims <= 0 {
		return nil, fmt.Errorf("datagen: need at least one dimension, got %d", spec.Dims)
	}
	name := spec.Name
	if name == "" {
		name = "synthetic"
	}
	attrs := make([]string, spec.Dims)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	schema, err := relation.NewSchema(name, attrs, "jkey")
	if err != nil {
		return nil, err
	}
	rel := relation.New(schema)
	rng := rand.New(rand.NewPCG(spec.Seed, spec.Seed^0x9e3779b97f4a7c15))
	domain := spec.JoinDomain()
	for i := 0; i < spec.N; i++ {
		vals := make([]float64, spec.Dims)
		switch spec.Distribution {
		case Correlated:
			correlated(rng, vals)
		case AntiCorrelated:
			antiCorrelated(rng, vals)
		default:
			independent(rng, vals)
		}
		rel.Tuples = append(rel.Tuples, relation.Tuple{
			ID:      int64(i),
			Vals:    vals,
			JoinKey: rng.Int64N(domain),
		})
	}
	return rel, nil
}

// MustGenerate is Generate that panics on error; for tests and benchmarks
// with literal specs.
func MustGenerate(spec Spec) *relation.Relation {
	r, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// independent draws each attribute uniformly from [AttrMin, AttrMax].
func independent(rng *rand.Rand, vals []float64) {
	for i := range vals {
		vals[i] = AttrMin + rng.Float64()*(AttrMax-AttrMin)
	}
}

// correlated draws points close to the main diagonal: a base value per tuple
// plus small per-dimension jitter, following the "peak around the diagonal"
// construction of [1]. Correlated data is skyline-friendly: a few tuples
// dominate almost everything.
func correlated(rng *rand.Rand, vals []float64) {
	base := peaked(rng)
	span := AttrMax - AttrMin
	for i := range vals {
		v := base + (rng.Float64()-0.5)*0.1*span
		vals[i] = clamp(v)
	}
}

// antiCorrelated draws points close to the anti-diagonal hyperplane
// Σ normalized(v_i) ≈ d/2 with large variance across dimensions: tuples
// that are good in one dimension are bad in others, which maximizes the
// skyline size.
func antiCorrelated(rng *rand.Rand, vals []float64) {
	d := len(vals)
	span := AttrMax - AttrMin
	// Normalized coordinates in [0,1] summing approximately to d/2.
	target := float64(d)/2 + (rng.Float64()-0.5)*0.1*float64(d)
	raw := make([]float64, d)
	sum := 0.0
	for i := range raw {
		raw[i] = rng.Float64()
		sum += raw[i]
	}
	if sum == 0 {
		sum = 1
	}
	scale := target / sum
	for i := range vals {
		v := raw[i] * scale
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		vals[i] = AttrMin + v*span
	}
}

// peaked samples a value in [AttrMin, AttrMax] concentrated around the
// middle of the range (sum of two uniforms), as in [1].
func peaked(rng *rand.Rand) float64 {
	u := (rng.Float64() + rng.Float64()) / 2
	return AttrMin + u*(AttrMax-AttrMin)
}

func clamp(v float64) float64 {
	if v < AttrMin {
		return AttrMin
	}
	if v > AttrMax {
		return AttrMax
	}
	return v
}

// GeneratePair produces the two-source workload of the paper's experiments:
// relations R and T with identical cardinality N, dimensionality, and
// distribution, sharing a join-key domain sized for σ but with independent
// contents (distinct seeds derived from Seed).
func GeneratePair(spec Spec) (r, t *relation.Relation, err error) {
	rs := spec
	rs.Name = "R"
	rs.Seed = spec.Seed*2 + 1
	ts := spec
	ts.Name = "T"
	ts.Seed = spec.Seed*2 + 2
	if r, err = Generate(rs); err != nil {
		return nil, nil, err
	}
	if t, err = Generate(ts); err != nil {
		return nil, nil, err
	}
	return r, t, nil
}
