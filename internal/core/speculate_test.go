package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// specFixture builds a one-region space plus its materialized candidate
// stream, with attribute trends chosen per trial: "random" streams exercise
// mixed verdicts, "descending" streams make almost every later candidate
// dominate earlier survivors (eviction-heavy rounds), "ascending" streams
// make almost every later candidate stale-rejected, "tied" streams sit at
// 1e16 where coordinate sums lose their low bits, so dominators and victims
// share a sum and every sum cutoff must be tie-inclusive.
func specFixture(t *testing.T, rng *rand.Rand, trend string) (*space, []cand) {
	t.Helper()
	val := func(i, n int) float64 {
		switch trend {
		case "descending":
			return float64(n-i)/float64(n) + rng.Float64()*0.05
		case "ascending":
			return float64(i)/float64(n) + rng.Float64()*0.05
		default:
			return rng.Float64()
		}
	}
	mk := func(base, n int) *inputPartition {
		p := newPartition(0, 2)
		for i := 0; i < n; i++ {
			vals := []float64{val(i, n), val((i*7)%n, n)}
			if trend == "tied" {
				// Outputs (1e16 | 1e16+2, 0…2): most sums round to 1e16.
				vals = []float64{5e15 + float64(rng.Intn(2)), float64(rng.Intn(3)) / 2}
			}
			p.add(relation.Tuple{ID: int64(base + i), Vals: vals, JoinKey: int64(i % 6)})
		}
		indexKeys([]*inputPartition{p})
		return p
	}
	left := []*inputPartition{mk(0, 60)}
	right := []*inputPartition{mk(1000, 48)}
	regions, _, front := buildRegions(left, right, sumMaps2(), nil)
	if len(regions) != 1 || regions[0].joinCard == 0 {
		t.Fatalf("fixture: regions=%d", len(regions))
	}
	var stats smj.Stats
	s, err := buildSpace(regions, front, 2, 16, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.emit = func(outTuple) {}
	p := newPool(context.Background(), 1, s, regions, sumMaps2(), 0)
	buf := &candBuf{}
	n := p.mapStream(regions[0], buf, smj.NewCanceler(context.Background()))
	return s, buf.cands[:n]
}

// newTestSpeculator builds a speculator over s without a worker pool: the
// property test drives scanDominated/deltaDominated directly on the test
// goroutine, so launch/take scheduling is not involved.
func newTestSpeculator(s *space, stats *smj.Stats) *speculator {
	sp := &speculator{s: s, stats: stats}
	sp.view.d = s.d
	sp.view.arena.d = s.d
	sp.view.cells = make([]specCellView, len(s.cellList))
	return sp
}

// TestSpeculationVerdictEquivalence is the soundness property behind
// speculative cross-round pipelining, checked over randomized commit/
// speculate interleavings: for every candidate, the stale verdict computed
// against the append-only view at version V, combined with delta
// revalidation over the ring versions V+1..W, must equal the fresh
// full-space phase-1 verdict at its round's version W — on random,
// ascending, eviction-heavy descending, and rounded-sum-tie streams, at
// random speculation lags.
func TestSpeculationVerdictEquivalence(t *testing.T) {
	trends := []string{"random", "descending", "ascending"}
	for trial := 0; trial < 12; trial++ {
		trend := "tied"
		if trial < 9 {
			trend = trends[trial%len(trends)]
		}
		t.Run(fmt.Sprintf("trial=%d/%s", trial, trend), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(991*trial + 7)))
			var stats smj.Stats
			s, cands := specFixture(t, rng, trend)
			sp := newTestSpeculator(s, &stats)
			st := newPrecheckState(len(s.cellList))

			// Split the candidate stream into rounds of random sizes.
			var rounds [][]cand
			for len(cands) > 0 {
				n := 1 + rng.Intn(20)
				if n > len(cands) {
					n = len(cands)
				}
				rounds = append(rounds, cands[:n])
				cands = cands[n:]
			}

			// stale holds one speculated round's verdicts: the round they
			// cover, the view version they were computed at, the verdicts.
			type stale struct {
				round    int
				version  int
				rejected []bool
			}
			var pending []stale

			for ri, round := range rounds {
				// Consume a speculation for this round if one was taken.
				var sr *stale
				if len(pending) > 0 && pending[0].round == ri {
					sr = &pending[0]
					pending = pending[1:]
				}

				// Assert the property against the frozen pre-round space:
				// stale-reject is final, stale-survive plus delta
				// revalidation equals the fresh verdict.
				if sr != nil {
					comps := 0
					for k := range round {
						cd := &round[k]
						c := s.cellAt(cd.flat)
						if c == nil || c.marked {
							continue // the sequencer's marked-first check; verdict unused
						}
						fresh := s.precheckDominated(c, cd.v, cd.sum, st, &comps)
						spec := sr.rejected[k] || sp.deltaDominated(c, cd, sr.version, &comps)
						if spec != fresh {
							t.Fatalf("round %d cand %d (v=%v): speculative verdict %v (stale@%d=%v), fresh@%d %v",
								ri, k, cd.v, spec, sr.version, sr.rejected[k], sp.version, fresh)
						}
					}
				}

				// Apply the round through the serial protocol, mirroring the
				// engine's routing pass: marked-first, then the full serial
				// verdict (insertSum re-runs phase 1 at the candidate's turn,
				// which subsumes the intra-round filter), recording survivors
				// into the view in routing order.
				var survs []roundSurv
				for k := range round {
					cd := &round[k]
					c := s.cellAt(cd.flat)
					if c == nil || c.marked {
						continue
					}
					if _, ok := s.insertSum(c, cd.leftID, cd.rightID, cd.v, cd.sum); ok {
						v := sp.record(c, cd)
						survs = append(survs, roundSurv{v: v, sum: cd.sum, c: c})
					}
				}
				sp.pushDelta(survs)

				// Speculate a future round at a random lag, like the engine
				// launching scans against prefetched jobs: stale verdicts for
				// round ri+lag computed against the view as of now.
				if len(pending) < 3 && rng.Intn(2) == 0 {
					next := ri + 1
					if len(pending) > 0 {
						next = pending[len(pending)-1].round + 1
					}
					next += rng.Intn(3) // skip some rounds: they run fresh
					if next < len(rounds) {
						target := rounds[next]
						rej := make([]bool, len(target))
						comps := 0
						for k := range target {
							cd := &target[k]
							c := s.cellAt(cd.flat)
							if c == nil || c.marked {
								continue
							}
							if sp.scanDominated(c, cd.v, cd.sum, st, &comps) {
								rej[k] = true
							}
						}
						pending = append(pending, stale{round: next, version: sp.version, rejected: rej})
					}
				}
			}
		})
	}
}

// TestSpeculationEngineCounters pins that the engine actually pipelines:
// a parallel partitioned-commit run with speculation enabled launches
// speculative scans, consumes their verdicts (skipping drain barriers), and
// revalidates survivors — and still matches a speculation-off run result
// for result.
func TestSpeculationEngineCounters(t *testing.T) {
	defer func(old int) { precheckMinCands = old }(precheckMinCands)
	precheckMinCands = 1

	p := smokeProblem(t, 500, 2, datagen.Independent, 0.01, 42)
	run := func(spec int) (smj.Stats, []smj.Result) {
		var got []smj.Result
		e := New(Options{Workers: 2, Committers: 2, SpeculateRounds: spec})
		stats, err := e.Run(p, smj.SinkFunc(func(r smj.Result) { got = append(got, r) }))
		if err != nil {
			t.Fatal(err)
		}
		return stats, got
	}
	off, offRes := run(0)
	on, onRes := run(2)
	if on.SpecRounds == 0 {
		t.Fatal("SpeculateRounds=2 run launched no speculative scans")
	}
	if on.SpecHits == 0 {
		t.Fatal("speculative scans launched but no stale verdicts were consumed")
	}
	if on.SpecHits > on.SpecRounds {
		t.Fatalf("SpecHits %d > SpecRounds %d", on.SpecHits, on.SpecRounds)
	}
	if off.SpecRounds != 0 || off.SpecHits != 0 || off.SpecRevalChecks != 0 {
		t.Fatalf("speculation-off run reported speculation: %+v", off)
	}
	if len(onRes) != len(offRes) {
		t.Fatalf("speculation changed the result count: %d vs %d", len(onRes), len(offRes))
	}
	for i := range onRes {
		if onRes[i].LeftID != offRes[i].LeftID || onRes[i].RightID != offRes[i].RightID {
			t.Fatalf("result %d diverges: %+v vs %+v", i, onRes[i], offRes[i])
		}
	}
}
