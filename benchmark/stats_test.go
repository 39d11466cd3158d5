package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, never a measured zero")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // 9 beyond p75
		{40, 75, true},
		{99, 75, true}, // 9 beyond p90
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if note := tailNote(100, 90); note != "" {
		t.Errorf("p90 of 100 samples is supported, got note %q", note)
	}
	if note := tailNote(59, 90); !strings.Contains(note, "p75") {
		t.Errorf("p90 of 59 samples must name p75 as the supported tail, got %q", note)
	}
}

func TestFailedShare(t *testing.T) {
	if got := failedShare(0, 10); got != 0 {
		t.Errorf("0 of 10 failed = %v", got)
	}
	if got := failedShare(1, 4); got != 0.25 {
		t.Errorf("1 of 4 failed = %v", got)
	}
	if got := failedShare(0, 0); got != 1 {
		t.Errorf("nothing attempted must count as wholly failed, got %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},       // overlaps a: 10..50 is covered once
		{Name: "c", Start: 60, End: 120, Parent: 0},      // clipped to the parent's end
		{Name: "a.inner", Start: 12, End: 18, Parent: 1}, // a grandchild only reduces its own parent
	}
	want := []int64{20, 14, 30, 60, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{Num: 2400, Den: 1950, Unit: "ms"}
	if got := r.value(); math.Abs(got-2400.0/1950) > 1e-12 {
		t.Errorf("value = %v", got)
	}
	if b := r.base(); !strings.Contains(b, "2400") || !strings.Contains(b, "1950") || !strings.Contains(b, "ms") {
		t.Errorf("base %q must show both numbers and their unit", b)
	}
	if got := (ratio{Num: 1}).value(); got != 0 {
		t.Errorf("a ratio over nothing is 0, got %v", got)
	}
	rep := newReport("w")
	rep.setRatio("x", r, 3)
	if rep.vals["x"].Note == "" {
		t.Error("a recorded ratio lost its base")
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 93); math.Abs(got-0.07) > 1e-12 {
		t.Errorf("relDiff(100, 93) = %v", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0, 0) = %v", got)
	}
	if got := relDiff(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0, 1) = %v", got)
	}
}

// TestReferenceSpeed pins the scaling rule: a window in which the kernel took
// twice its nominal time halves every time measured in it and doubles every
// rate, and the row names both numbers it was formed from.
func TestReferenceSpeed(t *testing.T) {
	sp := &speedometer{ms: []float64{2 * refNominalMs, 2 * refNominalMs, 3 * refNominalMs, refNominalMs}}
	speed := sp.speed()
	if got := speed.value(); got != 0.5 {
		t.Fatalf("speed = %v, want 0.5", got)
	}
	rep := newReport("w")
	rep.setScaled("total_ms", 200, speed, 4)
	rep.setScaled("ops_per_s", 5, speed.inverse(), 4)
	if got := rep.vals["total_ms"].V; got != 100 {
		t.Errorf("total_ms = %v, want 100", got)
	}
	if got := rep.vals["ops_per_s"].V; got != 10 {
		t.Errorf("ops_per_s = %v, want 10", got)
	}
	if note := rep.vals["total_ms"].Note; !strings.Contains(note, "200 measured") || !strings.Contains(note, speed.base()) {
		t.Errorf("scaled row does not carry its base: %q", note)
	}
	if !math.IsNaN((&speedometer{}).speed().value()) {
		t.Error("a window without a kernel run must not yield a speed")
	}
}

// TestReferenceKernel checks that the kernel does its work (a run takes
// time) and that two kernels share nothing.
func TestReferenceKernel(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	if ms := a.run(); ms <= 0 {
		t.Errorf("kernel run took %v ms", ms)
	}
	if &a.words[0] == &b.words[0] || &a.rows[0] == &b.rows[0] {
		t.Error("two kernels share a working set")
	}
	if a.bytes() != float64(refFarWords*8+refScanRows*16) {
		t.Errorf("kernel holds %v bytes", a.bytes())
	}
}
