package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// BenchmarkLoneRequest measures what one client alone on the server observes
// — request write to first result line, and to end of stream — on a run long
// enough to outlast the scheduler's 10 ms preemption tick (anti-correlated
// d=4, N=20K, ≈4.7K results, plan cached). With -cpu 1 the engine goroutine,
// the subscriber and the in-process client share one P, so the first result
// waits for whoever holds it to give it up; this is the instrument for any
// change to that hand-off. It reports medians: `go test -run '^$' -bench
// LoneRequest -benchtime 22x -cpu 1,2 ./internal/server/`.
func BenchmarkLoneRequest(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, name := range []string{"A", "B"} {
		spec := fmt.Sprintf(`{"name":%q,"rows":20000,"dims":4,"distribution":"anti-correlated","selectivity":0.001,"seed":%d}`, name, i+1)
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	body := []byte(`{"query":"SELECT (A.a0+B.a0) AS w, (A.a1+B.a1) AS x, (A.a2+B.a2) AS y, (A.a3+B.a3) AS z FROM A A, B B WHERE A.jkey = B.jkey PREFERRING LOWEST(w) AND LOWEST(x) AND LOWEST(y) AND LOWEST(z)"}`)
	fire := func() (first, total time.Duration, results int) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), []byte(`{"type":"result"`)) {
				if results++; results == 1 {
					first = time.Since(start)
				}
			}
		}
		if err := sc.Err(); err != nil || results == 0 {
			b.Fatalf("stream ended with %d results: %v", results, err)
		}
		return first, time.Since(start), results
	}
	_, _, results := fire() // warm: connection pool and plan cache
	b.ResetTimer()
	firsts, totals := make([]float64, b.N), make([]float64, b.N)
	for i := range firsts {
		first, total, _ := fire()
		firsts[i], totals[i] = first.Seconds()*1000, total.Seconds()*1000
	}
	slices.Sort(firsts)
	slices.Sort(totals)
	b.ReportMetric(firsts[b.N/2], "first-ms")
	b.ReportMetric(totals[b.N/2], "total-ms")
	b.ReportMetric(float64(results), "results")
	b.ReportMetric(0, "ns/op")
}
