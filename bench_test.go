// Benchmarks over the framework's design choices (ablations), the skyline
// and join substrates, and time-to-first-result through the serve layer.
// The paper's figures (Figs. 10–13) run through cmd/progxe-bench, and the
// gated benchmark is `go run ./benchmark`.
package progxe_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"progxe"
	"progxe/internal/bench"
	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/join"
	"progxe/internal/relation"
	"progxe/internal/server"
	"progxe/internal/skyline"
	"progxe/internal/smj"
)

// reportFirstMS reports first-result latency across all b.N iterations —
// the mean and the min — rather than whatever the last iteration happened
// to measure.
func reportFirstMS(b *testing.B, sum, min time.Duration) {
	b.Helper()
	mean := sum / time.Duration(b.N)
	b.ReportMetric(float64(mean.Microseconds())/1000, "first-ms")
	b.ReportMetric(float64(min.Microseconds())/1000, "first-min-ms")
}

type discard struct{}

func (discard) Emit(smj.Result) {}

// ----- Ablations (design choices called out in DESIGN.md §6) -----

func ablationProblem(b *testing.B, n, d int) *smj.Problem {
	b.Helper()
	wl := bench.Workload{N: n, Dims: d, Dist: datagen.AntiCorrelated, Sigma: 0.01, Seed: 21}
	p, err := wl.Problem()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationGridK varies the output-grid resolution k (the paper's
// partition size δ): too coarse loses pruning, too fine pays bookkeeping.
func BenchmarkAblationGridK(b *testing.B) {
	p := ablationProblem(b, 1200, 4)
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := progxe.New(progxe.Options{OutputCells: k})
				if _, err := e.Run(p, discard{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInputG varies the input partitioning resolution g, which
// controls the region count n the O(n²) look-ahead machinery operates on.
func BenchmarkAblationInputG(b *testing.B) {
	p := ablationProblem(b, 1200, 4)
	for _, g := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := progxe.New(progxe.Options{InputCells: g})
				if _, err := e.Run(p, discard{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartitioning compares the uniform-grid input partitioner
// against the kd median-split alternative (§III notes other space
// partitionings apply) — kd keeps partitions balanced under skew.
func BenchmarkAblationPartitioning(b *testing.B) {
	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.AntiCorrelated} {
		wl := bench.Workload{N: 1200, Dims: 4, Dist: dist, Sigma: 0.01, Seed: 21}
		p, err := wl.Problem()
		if err != nil {
			b.Fatal(err)
		}
		for _, part := range []core.Partitioning{core.PartitionGrid, core.PartitionKD} {
			b.Run(fmt.Sprintf("%s/%s", dist, part), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := progxe.New(progxe.Options{Partitioning: part})
					if _, err := e.Run(p, discard{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationOrdering isolates the ordering policy: the full
// benefit/cost ProgOrder vs arrival vs random.
func BenchmarkAblationOrdering(b *testing.B) {
	p := ablationProblem(b, 1200, 4)
	policies := []struct {
		name string
		ord  progxe.Ordering
	}{
		{"ProgOrder", progxe.OrderProgressive},
		{"Arrival", progxe.OrderArrival},
		{"Random", progxe.OrderRandom},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var firstSum, firstMin time.Duration
			for i := 0; i < b.N; i++ {
				e := progxe.New(progxe.Options{Ordering: pol.ord, Seed: 5})
				start := time.Now()
				var first time.Duration
				got := false
				if _, err := e.Run(p, smj.SinkFunc(func(smj.Result) {
					if !got {
						got = true
						first = time.Since(start)
					}
				})); err != nil {
					b.Fatal(err)
				}
				firstSum += first
				if i == 0 || first < firstMin {
					firstMin = first
				}
			}
			reportFirstMS(b, firstSum, firstMin)
		})
	}
}

// BenchmarkSkyline measures the single-set skyline pass (SFS) the blocking
// baselines run.
func BenchmarkSkyline(b *testing.B) {
	rel := datagen.MustGenerate(datagen.Spec{N: 4000, Dims: 4, Distribution: datagen.AntiCorrelated, Selectivity: 1, Seed: 8})
	pts := make([][]float64, rel.Len())
	for i, t := range rel.Tuples {
		pts[i] = t.Vals
	}
	for i := 0; i < b.N; i++ {
		skyline.Compute(pts)
	}
}

// BenchmarkJoinSubstrate measures the whole-relation hash equi-join.
func BenchmarkJoinSubstrate(b *testing.B) {
	r, t, err := datagen.GeneratePair(datagen.Spec{N: 5000, Dims: 2, Selectivity: 0.001, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.Hash(r.Tuples, t.Tuples, func(int, int) bool { return true })
		}
	})
}

// BenchmarkServeTTFR measures time-to-first-result through the HTTP serve
// layer — the quantity the serve-path plan cache exists to improve. The
// cache-miss variant disables the plan cache so every request re-pays
// partition/region-build/prune at query time; the cache-hit variant warms
// the cache once and measures the replanning-free path. Both run through a
// run group of one — the only path a /v1/query run has. Reported first-ms
// here is client-observed: request write → first "result" NDJSON line.
func BenchmarkServeTTFR(b *testing.B) {
	left, right, err := datagen.GeneratePair(datagen.Spec{
		N: 2000, Dims: 3, Distribution: datagen.AntiCorrelated,
		Selectivity: 0.01, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	const query = `SELECT (R.a0+T.a0) AS x, (R.a1+T.a1) AS y FROM R R, T T ` +
		`WHERE R.jkey = T.jkey PREFERRING LOWEST(x) AND LOWEST(y)`
	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"cache-miss", -1}, // plan cache disabled: full setup every request
		{"cache-hit", 0},   // default cache: warmed before the timer starts
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv := server.New(server.Config{PlanCacheSize: mode.cacheSize})
			for _, rel := range []*relation.Relation{left, right} {
				if err := srv.Catalog().Register(rel); err != nil {
					b.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			body := fmt.Sprintf(`{"query": %q}`, query)
			fire := func() time.Duration {
				start := time.Now()
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("query status %d", resp.StatusCode)
				}
				var first time.Duration
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
				for sc.Scan() {
					if first == 0 && strings.Contains(sc.Text(), `"type":"result"`) {
						first = time.Since(start)
					}
				}
				if err := sc.Err(); err != nil {
					b.Fatal(err)
				}
				if first == 0 {
					b.Fatal("stream held no result records")
				}
				return first
			}
			fire() // warm: connection pool, and the plan cache when enabled
			b.ResetTimer()
			var firstSum, firstMin time.Duration
			for i := 0; i < b.N; i++ {
				first := fire()
				firstSum += first
				if i == 0 || first < firstMin {
					firstMin = first
				}
			}
			reportFirstMS(b, firstSum, firstMin)
		})
	}
}
