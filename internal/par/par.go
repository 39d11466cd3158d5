// Package par provides the deterministic parallel-for primitive shared by
// the engine's setup passes (region pruning, coverage, static marking) and
// the scheduler layer's graph construction. Callers confine each chunk's
// writes to its own index range, which makes the combined result independent
// of goroutine scheduling — the determinism contract the differential
// harness enforces.
package par

import "sync"

// Min is the loop size below which For stays inline: distributing a handful
// of iterations costs more in goroutine startup than the work itself.
const Min = 512

// YieldHook, when non-nil, is invoked from parallel loops between work
// items. Tests install runtime.Gosched-based hooks to randomize goroutine
// interleaving and prove the output does not depend on it. Must be set
// before any engine run starts and not changed while one is active.
var YieldHook func()

// For splits [0, n) into contiguous chunks across up to workers goroutines.
// fn must confine its writes to the indices of its chunk (and data derivable
// only from them), which makes the combined result independent of
// scheduling.
//
// A panic in a chunk does not kill the process: For recovers it, waits for
// the other chunks, and panics again on the caller's goroutine with the
// value of the lowest chunk that panicked, so the outcome is deterministic.
func For(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < Min {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	panics := make([]any, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			defer func() { panics[c] = recover() }()
			if YieldHook != nil {
				YieldHook()
			}
			fn(lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
