package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// kdFuzzAlphabet is small on purpose: ties, ±0 and extreme magnitudes are
// what the split's cut rule and the selection have to get right.
var kdFuzzAlphabet = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, 7, 7, 7, -2.5, 1e-300, -1e-300, 1e300, -1e300, 42}

// kdFuzzColumn builds one value column of n rows from the fuzzer's bytes:
// alphabet draws, runs of one value, or a sequence shaped against quickselect
// — an organ pipe, or Musser's median-of-three killer, on which a
// median-of-three pivot removes two elements a round.
func kdFuzzColumn(mode byte, n int, data []byte) []float64 {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	col := make([]float64, n)
	switch mode % 4 {
	case 0: // one draw per row
		for i := range col {
			col[i] = kdFuzzAlphabet[int(at(i))%len(kdFuzzAlphabet)]
		}
	case 1: // runs: low nibble the value, high nibble the length
		for i, b := 0, 0; i < n; b++ {
			v := kdFuzzAlphabet[int(at(b)&15)]
			for run := 1 + 8*int(at(b)>>4); run > 0 && i < n; run, i = run-1, i+1 {
				col[i] = v
			}
		}
	case 2: // organ pipe
		for i := range col {
			col[i] = float64(min(i, n-1-i))
		}
	case 3: // median-of-three killer
		k := n / 2
		for i := 1; i <= k; i++ {
			if i%2 == 1 {
				col[i-1] = float64(i)
			} else {
				col[i-1] = float64(k + i - 1)
			}
			col[k+i-1] = float64(2 * i)
		}
		if n%2 == 1 {
			col[n-1] = float64(n)
		}
	}
	return col
}

// FuzzKDSplit decodes bytes into (n ≤ 2000, a partition budget, two value
// columns) and checks the selection split against the stable-sort split: the
// same leaves with every member inside its leaf's rect and the cardinalities
// summing to n (requireKDLeaves), and the selection itself against sorting —
// at the production round budget, through the depth-limit fallback alone
// (no rounds), and through one round followed by the fallback.
func FuzzKDSplit(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 8, 0x00, 1, 2, 3},                 // n=1
		{2, 0, 1, 0x00, 0, 1},                    // n=3: +0, -0, +0
		{200, 0, 16, 0x00, 0, 1, 0, 1, 2, 3},     // signed zeros, duplicate-heavy
		{0xcf, 0x07, 64, 0x23},                   // n=2000: killer × organ pipe
		{0xcf, 0x07, 7, 0x32},                    // organ pipe × killer
		{0xe7, 0x03, 33, 0x13, 0x35, 0xf7, 0x02}, // killer × runs
		{0xe8, 0x03, 255, 0x10, 9, 9, 9, 9, 4},   // draws × runs, deep budget
		{99, 1, 2, 0x11, 0x77, 0x18},             // two run columns, one split
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [4]byte
		rest := data[copy(head[:], data):]
		n := 1 + (int(head[0])|int(head[1])<<8)%2000
		maxParts := 1 + int(head[2])
		cols := [2][]float64{kdFuzzColumn(head[3]&15, n, rest), kdFuzzColumn(head[3]>>4, n, rest)}

		p := emptyProblem(t, n, 1)
		for i := range p.Left.Tuples {
			p.Left.Tuples[i].Vals = []float64{cols[0][i], cols[1][i]}
		}
		requireKDLeaves(t, p.Left, p.Maps, maxParts)

		for c, col := range cols {
			sorted := slices.Clone(col)
			slices.Sort(sorted)
			for _, k := range []int{0, max(n/2-1, 0), n - 1} {
				for _, rounds := range []int{2 * bits.Len(uint(n)), 0, 1} {
					if got := kthSmallest(slices.Clone(col), k, rounds); got != sorted[k] {
						t.Fatalf("column %d (n=%d): kthSmallest(k=%d, rounds=%d) = %v, sorted[k] = %v", c, n, k, rounds, got, sorted[k])
					}
				}
			}
		}
	})
}
