package main

import "time"

// The reference kernel is a fixed piece of benchmark-owned work that is run
// after every measured operation. The shared hosts this benchmark runs on
// slow down and speed up by 10–50% over seconds to minutes, and the same
// slow-down hits whatever runs next on the same core: over 15 s windows the
// median operation time and the median kernel time move together
// (correlation 0.9–0.97 when the two alternate every ≈0.2 s). Every time the
// untraced pass reports is therefore the measured time multiplied by
// refNominalMs ÷ (median kernel time of the same window): milliseconds at
// the speed of the reference host, not of whatever minute the run fell into.
// The kernel is no part of the program, so no change to the program moves it.
//
// It mixes the four things the engine's loops do: register arithmetic on
// independent chains, random access to a working set the size of a core's
// private cache, random access to one that reaches memory, and a dominance
// scan over a window of vectors.
const (
	refALUSteps   = 2_000_000
	refNearWords  = 1 << 18 // 2 MiB
	refNearSteps  = 1_000_000
	refFarWords   = 1 << 21 // 16 MiB
	refFarSteps   = 250_000
	refScanRows   = 1 << 14 // 256 KiB of 4-dimensional float32 vectors
	refScanPasses = 100
)

// refNominalMs is what one kernel run takes on the reference host (the
// 2.1 GHz Xeon microVM the first reference numbers come from) in a quiet
// minute. It only fixes the scale of the reported times.
const refNominalMs = 24.0

// refKernel holds the kernel's working sets. Each goroutine that measures
// gets its own.
type refKernel struct {
	words []uint64
	rows  [][4]float32
	sink  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{words: make([]uint64, refFarWords), rows: make([][4]float32, refScanRows)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.rows {
		for j := range k.rows[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.rows[i][j] = float32(x%10000) / 10000
		}
	}
	return k
}

// bytes is the heap the kernel holds, which resident_mb leaves out.
func (k *refKernel) bytes() float64 { return float64(len(k.words)*8 + len(k.rows)*16) }

// run does the fixed work once and returns how long it took, in ms.
func (k *refKernel) run() float64 {
	start := time.Now()

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := uint64(0); i < refALUSteps; i++ {
		a ^= a << 13
		b ^= b << 7
		c ^= c << 17
		d ^= d << 5
		a ^= a >> 7
		b ^= b >> 9
		c ^= c >> 11
		d ^= d >> 3
		a += i
		b += a
		c += i * 3
		d += c
	}

	x, s := uint64(88172645463325252), uint64(0)
	walk := func(mask uint64, steps int) {
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s += k.words[x&mask]
			k.words[(x>>23)&mask] = s
		}
	}
	walk(refNearWords-1, refNearSteps)
	walk(refFarWords-1, refFarSteps)

	hits := 0
	for p := 0; p < refScanPasses; p++ {
		o := [4]float32{float32(p) * 0.004, 0.5, 0.5, 0.5}
		for i := range k.rows {
			w := &k.rows[i]
			if w[0] <= o[0] && w[1] <= o[1] && w[2] <= o[2] && w[3] <= o[3] {
				hits++
			}
		}
	}

	k.sink += a + b + c + d + s + uint64(hits)
	return msSince(start)
}

// speedometer collects the kernel times of one measured window.
type speedometer struct {
	k  *refKernel
	ms []float64
}

func newSpeedometer() *speedometer { return &speedometer{k: newRefKernel()} }

// tick runs the kernel once; callers do so right after a measured operation,
// outside its clock.
func (s *speedometer) tick() { s.ms = append(s.ms, s.k.run()) }

// join folds another goroutine's samples of the same window into s.
func (s *speedometer) join(o *speedometer) { s.ms = append(s.ms, o.ms...) }

// speed is how fast the host ran during the window, as a multiple of the
// reference host: a time measured in the window, multiplied by it, is the
// time at reference speed.
func (s *speedometer) speed() ratio { return ratio{refNominalMs, median(s.ms), "ms"} }
