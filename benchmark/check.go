package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"progxe"
	"progxe/internal/join"
)

// digest folds an emission sequence (ids and output bits, in order) into one
// word, so two runs can be compared for byte-identical streams without
// retaining either.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d digest) word(x uint64) digest { return (d ^ digest(x)) * fnvPrime }

func (d digest) result(leftID, rightID int64, out []float64) digest {
	d = d.word(uint64(leftID)).word(uint64(rightID))
	for _, v := range out {
		d = d.word(math.Float64bits(v))
	}
	return d
}

func digestOf(results []progxe.Result) digest {
	d := newDigest()
	for _, r := range results {
		d = d.result(r.LeftID, r.RightID, r.Out)
	}
	return d
}

// dominates reports whether a is at least as good as b everywhere and better
// somewhere, all dimensions minimized.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// coverageStride is the deterministic sampling rate of join pairs checked
// for coverage by the emitted answer.
const coverageStride = 256

// checkAnswer verifies an emitted answer against the problem it answers
// without running the full reference plan: the answer is an antichain, every
// member is a real join pair carrying the right mapped vector, and one in
// coverageStride join pairs is either emitted or dominated by a member.
func checkAnswer(p *progxe.Problem, results []progxe.Result) error {
	left := make(map[int64]progxe.Tuple, len(p.Left.Tuples))
	for _, t := range p.Left.Tuples {
		left[t.ID] = t
	}
	right := make(map[int64]progxe.Tuple, len(p.Right.Tuples))
	for _, t := range p.Right.Tuples {
		right[t.ID] = t
	}
	d := p.Maps.Dims()
	emitted := make(map[[2]int64]bool, len(results))
	buf := make([]float64, d)
	for _, r := range results {
		l, okL := left[r.LeftID]
		t, okR := right[r.RightID]
		if !okL || !okR || l.JoinKey != t.JoinKey {
			return fmt.Errorf("result (%d,%d) is not a join pair", r.LeftID, r.RightID)
		}
		p.Maps.Map(l.Vals, t.Vals, buf)
		for j := range buf {
			if buf[j] != r.Out[j] {
				return fmt.Errorf("result (%d,%d) carries %v, mapping gives %v", r.LeftID, r.RightID, r.Out, buf)
			}
		}
		if emitted[r.Key()] {
			return fmt.Errorf("result (%d,%d) emitted twice", r.LeftID, r.RightID)
		}
		emitted[r.Key()] = true
	}

	// A dominator's coordinate sum is strictly smaller than its victim's, so
	// in sum order only earlier members can dominate later ones.
	bySum := append([]progxe.Result(nil), results...)
	sums := make([]float64, len(bySum))
	sort.Slice(bySum, func(a, b int) bool { return sum(bySum[a].Out) < sum(bySum[b].Out) })
	for i, r := range bySum {
		sums[i] = sum(r.Out)
	}
	dominated := func(v []float64, s float64) bool {
		for i := 0; i < len(bySum) && sums[i] < s; i++ {
			if dominates(bySum[i].Out, v) {
				return true
			}
		}
		return false
	}
	for i, r := range bySum {
		if dominated(r.Out, sums[i]) {
			return fmt.Errorf("result (%d,%d) is dominated by another result", r.LeftID, r.RightID)
		}
	}

	var bad error
	seen := 0
	lt, rt := p.Left.Tuples, p.Right.Tuples
	join.Hash(lt, rt, func(li, ri int) bool {
		seen++
		if seen%coverageStride != 0 {
			return true
		}
		key := [2]int64{lt[li].ID, rt[ri].ID}
		p.Maps.Map(lt[li].Vals, rt[ri].Vals, buf)
		if !emitted[key] && !dominated(buf, sum(buf)) {
			bad = fmt.Errorf("join pair (%d,%d) is neither emitted nor dominated", key[0], key[1])
			return false
		}
		return true
	})
	return bad
}

// checkTwin runs the workload at 1/twinDivisor of its size — where the
// blocking reference plan is affordable — and demands that the engine's
// answer equals the oracle's as a set.
func checkTwin(w workload, seed uint64) error {
	in, err := w.scaled(twinDivisor).generate(seed)
	if err != nil {
		return err
	}
	var got progxe.Collector
	if _, err := progxe.RunContext(context.Background(), progxe.New(w.opts), in.problem, &got); err != nil {
		return fmt.Errorf("twin run: %w", err)
	}
	want, err := progxe.Oracle(in.problem)
	if err != nil {
		return fmt.Errorf("twin oracle: %w", err)
	}
	return sameSet("twin", got.Results, want)
}

// sameSet demands that two answers hold the same pairs with the same vectors.
func sameSet(what string, got, want []progxe.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, reference has %d", what, len(got), len(want))
	}
	ref := make(map[[2]int64][]float64, len(want))
	for _, r := range want {
		ref[r.Key()] = r.Out
	}
	for _, r := range got {
		out, ok := ref[r.Key()]
		if !ok {
			return fmt.Errorf("%s: result (%d,%d) is not in the reference", what, r.LeftID, r.RightID)
		}
		for j := range out {
			if out[j] != r.Out[j] {
				return fmt.Errorf("%s: result (%d,%d) carries %v, reference %v", what, r.LeftID, r.RightID, r.Out, out)
			}
		}
	}
	return nil
}
