package main

import (
	"fmt"
	"math"
	"sort"
)

// The statistics rules of the benchmark, in one place. Every number the
// benchmark prints goes through one of these.

// median returns the middle value (mean of the two middle values for an even
// count). It returns NaN for no samples, so an empty metric can never pass
// for a measured zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[max(rank(len(s), p), 1)-1]
}

// rank is the nearest rank ⌈p/100·n⌉, forgiving the last bit of the product
// so that 99.9% of 10000 is 9990 and not 9991.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it.
const tailSamples = 10

// tailCandidates are the percentiles a tail metric may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// highestPercentile selects the highest candidate percentile that has at
// least tailSamples samples beyond it in a sample of n; ok is false when even
// the lowest candidate has too few.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(n, c) >= tailSamples {
			return c, true
		}
	}
	return 0, false
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// of a sample of n.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailNote annotates a fixed-percentile row whose sample is too small to
// support it, naming the percentile the sample does support.
func tailNote(n int, p float64) string {
	if beyond(n, p) >= tailSamples {
		return ""
	}
	if hp, ok := highestPercentile(n); ok {
		return fmt.Sprintf("only %d samples beyond p%g; highest supported is p%g", beyond(n, p), p, hp)
	}
	return fmt.Sprintf("only %d samples beyond p%g; no percentile supported", beyond(n, p), p)
}

// failedShare is failed ÷ attempted; an empty run counts as wholly failed.
func failedShare(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ratio is a quotient that always travels with its base, so no ratio is ever
// printed without the two numbers it was formed from.
type ratio struct {
	Num, Den float64
	Unit     string // unit of Num and Den
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// inverse swaps the two numbers: what scales a time scales a rate inversely.
func (r ratio) inverse() ratio { return ratio{r.Den, r.Num, r.Unit} }

func (r ratio) base() string {
	return fmt.Sprintf("= %.6g / %.6g %s", r.Num, r.Den, r.Unit)
}

// relDiff is |b − a| as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cursor := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cursor), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}
