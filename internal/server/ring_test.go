package server

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingMatchesSliceModel drives a ring with random append / reader-lag /
// close schedules and checks every read against a plain slice holding
// everything ever appended: inside the window no entry is lost or duplicated,
// truncated is reported exactly when the cursor fell off the tail, and a
// closed ring drains and then reads empty.
func TestRingMatchesSliceModel(t *testing.T) {
	never := func() bool { return false }
	poll := func() bool { return true }
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(8)
		r := newRing[int](max)
		var all []int
		type reader struct {
			cursor uint64
			dead   bool // fell off the tail
		}
		readers := make([]reader, 1+rng.Intn(4))
		closed := false
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5 && !closed:
				all = append(all, len(all))
				r.append(all[len(all)-1])
			case op == 5 && step > 300 && !closed:
				r.close()
				closed = true
			case op == 6:
				// A reader joining now sees only what follows.
				if got := r.cursor(); got != uint64(len(all)) {
					t.Fatalf("seed %d: cursor() = %d, want %d", seed, got, len(all))
				}
			default:
				rd := &readers[rng.Intn(len(readers))]
				if rd.dead {
					continue
				}
				// A reader with nothing pending would park; poll instead,
				// unless the ring is closed and next must return by itself.
				stop := poll
				if closed || rd.cursor < uint64(len(all)) {
					stop = never
				}
				batch, next, truncated := r.next(rd.cursor, nil, stop)
				fellOff := len(all) > max && rd.cursor < uint64(len(all)-max)
				if truncated != fellOff {
					t.Fatalf("seed %d step %d: truncated = %v with cursor %d, total %d, max %d",
						seed, step, truncated, rd.cursor, len(all), max)
				}
				if truncated {
					if len(batch) != 0 || next != rd.cursor {
						t.Fatalf("seed %d: truncated read returned batch %v, cursor %d", seed, batch, next)
					}
					rd.dead = true
					continue
				}
				if want := all[rd.cursor:]; !slices.Equal(batch, want) || next != uint64(len(all)) {
					t.Fatalf("seed %d step %d: read from %d = %v (next %d), want %v (next %d)",
						seed, step, rd.cursor, batch, next, want, len(all))
				}
				rd.cursor = next
			}
		}
	}
}

// TestRingConcurrentReaders runs lagging readers against a live writer: every
// reader sees consecutive entries from its cursor (nothing lost, nothing
// twice) until the ring closes or it falls off the tail, and all terminate.
func TestRingConcurrentReaders(t *testing.T) {
	const entries = 5000
	r := newRing[int](64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(lag time.Duration) {
			defer wg.Done()
			var (
				cursor    uint64
				batch     []int
				truncated bool
			)
			for {
				batch, cursor, truncated = r.next(cursor, batch[:0], func() bool { return false })
				if truncated {
					return // only a lagging reader may fall off
				}
				if len(batch) == 0 {
					if cursor != entries {
						t.Errorf("reader drained at cursor %d, want %d", cursor, entries)
					}
					return
				}
				for j, v := range batch {
					if want := int(cursor) - len(batch) + j; v != want {
						t.Errorf("reader got %d at position %d", v, want)
						return
					}
				}
				time.Sleep(lag)
			}
		}(time.Duration(i) * 50 * time.Microsecond)
	}
	for i := 0; i < entries; i++ {
		r.append(i)
		if i%64 == 0 {
			time.Sleep(20 * time.Microsecond) // let the unlagged reader keep up
		}
	}
	r.close()
	wg.Wait()
}

// TestRingWakeUnblocksStoppedReader: a parked reader cannot observe its stop
// condition change by itself; wake makes it re-check and return empty.
func TestRingWakeUnblocksStoppedReader(t *testing.T) {
	r := newRing[int](4)
	r.append(7)
	var stopped atomic.Bool
	done := make(chan int, 1)
	go func() {
		batch, _, truncated := r.next(r.cursor(), nil, stopped.Load)
		if truncated {
			t.Error("parked reader reported truncated")
		}
		done <- len(batch)
	}()
	select {
	case <-done:
		t.Fatal("reader returned with nothing pending and stop false")
	case <-time.After(20 * time.Millisecond):
	}
	stopped.Store(true)
	r.wake()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("stopped reader returned %d entries, want none", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wake did not unblock the stopped reader")
	}
}
