package datagen

import (
	"math"
	"reflect"
	"testing"

	"progxe/internal/join"
	"progxe/internal/skyline"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{N: -1, Dims: 2}); err == nil {
		t.Fatal("negative N must error")
	}
	if _, err := Generate(Spec{N: 5, Dims: 0}); err == nil {
		t.Fatal("zero dims must error")
	}
}

func TestDeterminism(t *testing.T) {
	spec := Spec{N: 200, Dims: 3, Distribution: AntiCorrelated, Selectivity: 0.01, Seed: 42}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if !reflect.DeepEqual(a.Tuples, b.Tuples) {
		t.Fatal("same seed must generate identical data")
	}
	spec.Seed = 43
	c := MustGenerate(spec)
	if reflect.DeepEqual(a.Tuples, c.Tuples) {
		t.Fatal("different seeds must differ")
	}
}

func TestValueRanges(t *testing.T) {
	for _, dist := range []Distribution{Independent, Correlated, AntiCorrelated} {
		rel := MustGenerate(Spec{N: 500, Dims: 4, Distribution: dist, Selectivity: 0.1, Seed: 1})
		if rel.Len() != 500 {
			t.Fatalf("%s: N = %d", dist, rel.Len())
		}
		for _, tu := range rel.Tuples {
			for _, v := range tu.Vals {
				if v < AttrMin || v > AttrMax {
					t.Fatalf("%s: value %g out of [%g, %g]", dist, v, AttrMin, AttrMax)
				}
			}
		}
	}
}

func TestSchemaShape(t *testing.T) {
	rel := MustGenerate(Spec{Name: "X", N: 3, Dims: 2, Seed: 1, Selectivity: 0.5})
	if rel.Schema.Name != "X" || rel.Schema.JoinAttr != "jkey" {
		t.Fatalf("schema = %s", rel.Schema)
	}
	if rel.Schema.Attrs[0] != "a0" || rel.Schema.Attrs[1] != "a1" {
		t.Fatalf("attrs = %v", rel.Schema.Attrs)
	}
	anon := MustGenerate(Spec{N: 1, Dims: 1, Seed: 1, Selectivity: 1})
	if anon.Schema.Name != "synthetic" {
		t.Fatalf("default name = %q", anon.Schema.Name)
	}
}

// TestDistributionSkylineShape checks the defining property of the three
// regimes: at equal N and d, skyline size grows correlated < independent <
// anti-correlated [1].
func TestDistributionSkylineShape(t *testing.T) {
	sizes := map[Distribution]int{}
	for _, dist := range []Distribution{Correlated, Independent, AntiCorrelated} {
		rel := MustGenerate(Spec{N: 2000, Dims: 3, Distribution: dist, Selectivity: 1, Seed: 5})
		pts := make([][]float64, rel.Len())
		for i, tu := range rel.Tuples {
			pts[i] = tu.Vals
		}
		sizes[dist] = len(skyline.Compute(pts))
	}
	if !(sizes[Correlated] < sizes[Independent] && sizes[Independent] < sizes[AntiCorrelated]) {
		t.Fatalf("skyline sizes out of order: %v", sizes)
	}
	if sizes[Correlated] > 40 {
		t.Fatalf("correlated skyline too large: %d", sizes[Correlated])
	}
	if sizes[AntiCorrelated] < 100 {
		t.Fatalf("anti-correlated skyline too small: %d", sizes[AntiCorrelated])
	}
}

func TestJoinSelectivityTarget(t *testing.T) {
	for _, sigma := range []float64{0.001, 0.01, 0.1} {
		r, s, err := GeneratePair(Spec{N: 4000, Dims: 2, Distribution: Independent, Selectivity: sigma, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		got := join.Selectivity(r.Tuples, s.Tuples)
		if math.Abs(got-sigma)/sigma > 0.35 {
			t.Errorf("σ target %g: measured %g (>35%% off)", sigma, got)
		}
	}
}

func TestJoinDomain(t *testing.T) {
	if (Spec{Selectivity: 0.01}).JoinDomain() != 100 {
		t.Fatal("σ=0.01 → domain 100")
	}
	if (Spec{Selectivity: 1}).JoinDomain() != 1 {
		t.Fatal("σ=1 → domain 1")
	}
	if (Spec{Selectivity: 0}).JoinDomain() < 1<<20 {
		t.Fatal("σ=0 → effectively unjoinable domain")
	}
	if (Spec{Selectivity: 2}).JoinDomain() != 1 {
		t.Fatal("σ>1 clamps to 1")
	}
}

// TestJoinDomainSaturates: a σ whose ⌈1/σ⌉ is past the int64 range (every
// 0 < σ ≲ 1.1e-19, and NaN) saturates the domain instead of wrapping it
// negative, so Generate draws keys instead of panicking; a σ whose domain
// fits keeps its exact domain.
func TestJoinDomainSaturates(t *testing.T) {
	for _, sigma := range []float64{1e-300, 5e-324, 1e-19, 1.0 / (1 << 63), math.NaN()} {
		if got := (Spec{Selectivity: sigma}).JoinDomain(); got != math.MaxInt64 {
			t.Errorf("σ=%g: domain %d, want MaxInt64", sigma, got)
		}
		rel, err := Generate(Spec{N: 5, Dims: 2, Selectivity: sigma, Seed: 1})
		if err != nil || rel.Len() != 5 {
			t.Fatalf("σ=%g: generate %v, %v", sigma, rel, err)
		}
		for _, tp := range rel.Tuples {
			if tp.JoinKey < 0 {
				t.Fatalf("σ=%g: negative join key %d", sigma, tp.JoinKey)
			}
		}
	}
	if got := (Spec{Selectivity: 1.2e-19}).JoinDomain(); got != int64(math.Ceil(1/1.2e-19)) {
		t.Fatalf("σ=1.2e-19: domain %d, want the exact ⌈1/σ⌉", got)
	}
}

func TestGeneratePairIndependence(t *testing.T) {
	r, s, err := GeneratePair(Spec{N: 100, Dims: 2, Selectivity: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.Name != "R" || s.Schema.Name != "T" {
		t.Fatalf("pair names: %s, %s", r.Schema.Name, s.Schema.Name)
	}
	if reflect.DeepEqual(r.Tuples, s.Tuples) {
		t.Fatal("pair sides must be independently generated")
	}
}

func TestParseDistribution(t *testing.T) {
	good := map[string]Distribution{
		"independent": Independent, "ind": Independent, "indep": Independent,
		"correlated": Correlated, "cor": Correlated, "corr": Correlated,
		"anti-correlated": AntiCorrelated, "anti": AntiCorrelated,
		"anticorrelated": AntiCorrelated, "anticor": AntiCorrelated,
	}
	for s, want := range good {
		got, err := ParseDistribution(s)
		if err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDistribution("bogus"); err == nil {
		t.Fatal("unknown distribution must error")
	}
	for _, d := range []Distribution{Independent, Correlated, AntiCorrelated, Distribution(9)} {
		if d.String() == "" {
			t.Fatalf("Distribution(%d) renders empty", d)
		}
	}
}
