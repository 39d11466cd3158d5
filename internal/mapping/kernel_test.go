package mapping

import (
	"math"
	"math/rand/v2"
	"testing"

	"progxe/internal/grid"
)

// kernelArity is the attribute count of each side in the kernel tests.
const kernelArity = 4

// treeGen builds mapping trees and attribute vectors from a fuzz input: the
// shape bytes choose node kinds, factors and special values (0 once they run
// out), the seed draws everything else.
type treeGen struct {
	shape []byte
	rng   *rand.Rand
}

func (g *treeGen) pick(n int) int {
	if len(g.shape) == 0 {
		return 0
	}
	b := g.shape[0]
	g.shape = g.shape[1:]
	return int(b) % n
}

// factors holds the factors Map must treat exactly: 0 and -0 (a real
// factor, not "no scale"), the sign flip HIGHEST adds, an exact halving,
// and ones that overflow or underflow a product.
var factors = []float64{0, math.Copysign(0, -1), -1, 0.5, 1, 2, -1.5, 1e300, 1e-300}

func (g *treeGen) factor() float64 {
	if i := g.pick(len(factors) + 1); i < len(factors) {
		return factors[i]
	}
	return g.rng.NormFloat64() * 10
}

// specials are the values where a sum's bits are easy to get wrong: signed
// zeros, subnormals and magnitudes whose sums overflow.
var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

func (g *treeGen) value() float64 {
	if i := g.pick(len(specials) + 2); i < len(specials) {
		return specials[i]
	}
	return g.rng.NormFloat64() * math.Pow(10, float64(g.rng.IntN(20)-10))
}

func (g *treeGen) attr() Attr {
	return A(Side(g.pick(2)), g.rng.IntN(kernelArity), "")
}

// linear is a compilable sum: attributes and scaled attributes.
func (g *treeGen) linear() Add {
	terms := make(Add, g.pick(5))
	for i := range terms {
		if g.pick(2) == 0 {
			terms[i] = g.attr()
		} else {
			terms[i] = Scale{Factor: g.factor(), Of: g.attr()}
		}
	}
	return terms
}

// expr draws one mapping function: the two compiled shapes, every shape
// that falls back, and nestings of them.
func (g *treeGen) expr(depth int) Expr {
	kind := g.pick(11)
	if depth > 3 {
		kind %= 4
	}
	switch kind {
	case 0:
		return g.linear()
	case 1:
		return Scale{Factor: g.factor(), Of: g.linear()}
	case 2:
		return g.attr()
	case 3:
		return Const(g.value())
	case 4:
		return Scale{Factor: g.factor(), Of: g.expr(depth + 1)}
	case 5:
		return Sub{L: g.expr(depth + 1), R: g.expr(depth + 1)}
	case 6:
		return Min{g.expr(depth + 1), g.expr(depth + 1)}
	case 7:
		return Max{g.expr(depth + 1), g.expr(depth + 1)}
	default: // a sum with a drawn term: a nested sum or any non-attribute falls back
		return append(g.linear(), g.expr(depth+1))
	}
}

// FuzzMapKernel is Map's bit-identity oracle: every coordinate of Set.Map,
// compiled loop or tree fallback, must have the bits of its function's
// Expr.Eval, over random trees and vectors full of signed zeros,
// subnormals and values near ±1e308.
func FuzzMapKernel(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(2), []byte{1, 4, 1, 1, 0, 1, 1})
	f.Add(uint64(3), []byte{1, 1, 1, 0, 2, 1, 9, 10, 5, 0})
	f.Add(uint64(4), []byte{10, 3, 1, 0, 0, 1, 0, 0, 6, 0, 2})
	f.Add(uint64(5), []byte{5, 4, 8, 0, 2, 7, 3})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		g := &treeGen{shape: shape, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
		funcs := make([]Func, 1+g.pick(4))
		for j := range funcs {
			funcs[j] = Func{Name: string(rune('a' + j)), Expr: g.expr(0)}
		}
		s := MustSet(funcs...)
		left, right := make([]float64, kernelArity), make([]float64, kernelArity)
		out := make([]float64, len(funcs))
		for range 4 {
			for i := range kernelArity {
				left[i], right[i] = g.value(), g.value()
			}
			s.Map(left, right, out)
			for j, fn := range funcs {
				if want := fn.Expr.Eval(left, right); math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("%s over L%v R%v: Map = %v (%#x), Eval = %v (%#x)",
						fn.Expr, left, right, out[j], math.Float64bits(out[j]), want, math.Float64bits(want))
				}
			}
		}
	})
}

// TestMapKernelShapes pins which shapes compile to the loop and which keep
// their tree.
func TestMapKernelShapes(t *testing.T) {
	sum := Sum(A(Left, 0, ""), Scale{Factor: 2, Of: A(Right, 1, "")})
	for _, c := range []struct {
		expr     Expr
		compiled bool
	}{
		{sum, true},
		{Scale{Factor: -1, Of: sum}, true},
		{Scale{Factor: 0, Of: sum}, true},
		{Sum(), true},
		{A(Left, 0, ""), false},
		{Scale{Factor: -1, Of: A(Left, 0, "")}, false},
		{Scale{Factor: 2, Of: Scale{Factor: -1, Of: sum}}, false},
		{Sum(A(Left, 0, ""), sum), false},
		{Sum(A(Left, 0, ""), Const(1)), false},
		{Sum(Scale{Factor: 2, Of: sum}), false},
		{Sub{L: A(Left, 0, ""), R: A(Right, 0, "")}, false},
		{Min{A(Left, 0, ""), A(Right, 0, "")}, false},
	} {
		if k := compile(c.expr); (k.expr == nil) != c.compiled {
			t.Errorf("%s: compiled = %v, want %v", c.expr, k.expr == nil, c.compiled)
		}
	}
}

// BenchmarkMap is Map on the d = 4 per-dimension sum mapping of the
// paper's queries: the compiled loop against the tree walk it replaces.
func BenchmarkMap(b *testing.B) {
	funcs := make([]Func, 4)
	for j := range funcs {
		funcs[j] = Func{Name: string(rune('a' + j)), Expr: Sum(A(Left, j, ""), A(Right, j, ""))}
	}
	s := MustSet(funcs...)
	left, right := []float64{0.1, 0.2, 0.3, 0.4}, []float64{0.5, 0.6, 0.7, 0.8}
	dst := make([]float64, len(funcs))
	b.Run("kernel", func(b *testing.B) {
		for b.Loop() {
			s.Map(left, right, dst)
		}
	})
	b.Run("eval", func(b *testing.B) {
		for b.Loop() {
			for j, f := range funcs {
				dst[j] = f.Expr.Eval(left, right)
			}
		}
	})
}

// FuzzBounded is Bounded's soundness oracle: when it holds over two boxes,
// Map sends every point inside them — corners and interior points alike —
// to finite outputs inside MapRegion's rect, over random trees and boxes
// whose ends are signed zeros, subnormals and values near ±1e308.
func FuzzBounded(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(2), []byte{5, 4, 8, 0, 2, 7, 3})
	f.Add(uint64(3), []byte{6, 9, 1, 4, 5, 0, 1})
	f.Add(uint64(4), []byte{4, 7, 0, 1, 12, 3, 3})
	// A min whose finite interval hides an overflowing argument: checking
	// only each function's own interval calls it bounded.
	f.Add(uint64(4), []byte("7190A910000A90110012120$22A10100000072A911010000A9000012000000090000900a"))
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		g := &treeGen{shape: shape, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
		funcs := make([]Func, 1+g.pick(4))
		for j := range funcs {
			funcs[j] = Func{Name: string(rune('a' + j)), Expr: g.expr(0)}
		}
		s := MustSet(funcs...)
		var box [2]grid.Rect
		for i := range box {
			box[i] = grid.Rect{Lower: make([]float64, kernelArity), Upper: make([]float64, kernelArity)}
			for a := range kernelArity {
				lo, hi := g.value(), g.value()
				box[i].Lower[a], box[i].Upper[a] = min(lo, hi), max(lo, hi)
			}
		}
		if !s.Bounded(box[0], box[1]) {
			return
		}
		point := func(b grid.Rect) []float64 {
			p := make([]float64, kernelArity)
			for a := range p {
				switch u := g.rng.Float64(); g.rng.IntN(3) {
				case 0:
					p[a] = b.Lower[a]
				case 1:
					p[a] = b.Upper[a]
				default:
					p[a] = min(max(b.Lower[a]*(1-u)+b.Upper[a]*u, b.Lower[a]), b.Upper[a])
				}
			}
			return p
		}
		out := make([]float64, len(funcs))
		rect := s.MapRegion(box[0], box[1])
		for range 16 {
			left, right := point(box[0]), point(box[1])
			for j, v := range s.Map(left, right, out) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s is bounded over L%v R%v but maps L%v R%v to %v",
						funcs[j].Expr, box[0], box[1], left, right, v)
				}
				if v < rect.Lower[j] || v > rect.Upper[j] {
					t.Fatalf("%s is bounded over L%v R%v but maps L%v R%v to %v, outside [%v, %v]",
						funcs[j].Expr, box[0], box[1], left, right, v, rect.Lower[j], rect.Upper[j])
				}
			}
		}
	})
}
