// Package skyline implements the single-set skyline (Pareto-maxima) pass the
// blocking baselines run — Sort-Filter-Skyline — and the Bentley/Buchta
// estimate of the expected skyline size used by the paper's benefit model
// (Equation 1).
//
// Everything operates in canonical minimized space: a point a dominates b
// iff a ≤ b componentwise with at least one strict inequality.
package skyline

import (
	"math"
	"slices"
	"sort"

	"progxe/internal/preference"
)

// Compute returns the indices (into pts) of the skyline of pts under
// minimizing dominance, in ascending order. Duplicate points are all
// retained (none dominates another). It is Sort-Filter-Skyline: sorting by a
// monotone score first means no point can be dominated by a later one, so
// every window survivor is final immediately. Floating-point sums can tie
// where the exact ones would not; ties order lexicographically, which still
// puts a dominator first.
func Compute(pts [][]float64) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	score := make([]float64, len(pts))
	for i, p := range pts {
		s := 0.0
		for _, v := range p {
			s += v
		}
		score[i] = s
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return score[i] < score[j] || score[i] == score[j] && slices.Compare(pts[i], pts[j]) < 0
	})

	window := make([]int, 0, 64)
	for _, i := range order {
		dominated := false
		for _, j := range window {
			if preference.DominatesMin(pts[j], pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			window = append(window, i)
		}
	}
	sort.Ints(window)
	return window
}

// EstimateCardinality returns the Bentley [13] / Buchta [14] estimate of the
// expected number of maxima among n independently distributed d-dimensional
// points: (ln n)^(d-1) / (d-1)!  (Equation 1 of the paper). It returns at
// least 1 for n ≥ 1 and 0 for n ≤ 0.
func EstimateCardinality(n float64, d int) float64 {
	if n <= 0 || d <= 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	ln := math.Log(n)
	if d == 1 {
		return 1
	}
	est := math.Pow(ln, float64(d-1)) / factorial(d-1)
	if est < 1 {
		est = 1
	}
	if est > n {
		est = n
	}
	return est
}

func factorial(k int) float64 {
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

// KungAlpha returns the α exponent in Kung et al.'s average skyline
// complexity O(|S|·log^α |S|): α = 1 for d ∈ {2,3} and α = d−2 for d ≥ 4
// (§IV-C). For d ≤ 1 it returns 0.
func KungAlpha(d int) float64 {
	switch {
	case d <= 1:
		return 0
	case d <= 3:
		return 1
	default:
		return float64(d - 2)
	}
}
