package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// readStream consumes an NDJSON query response to EOF and returns the
// decoded records. EOF implies the handler has returned, so run-log and
// logger side effects are visible afterwards.
func readStream(t *testing.T, resp *http.Response) []map[string]any {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query: status %d: %s", resp.StatusCode, b)
	}
	var recs []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func lastStats(t *testing.T, recs []map[string]any) map[string]any {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i]["type"] == "stats" {
			return recs[i]
		}
	}
	t.Fatalf("no stats record in:\n%s", fmtRecords(recs))
	return nil
}

// TestRunObservabilityEndToEnd pins the acceptance criterion: one traced
// request yields a /v1/runs record with a phase breakdown and progress
// quantiles, a Perfetto-loadable Chrome-trace document, and per-engine
// labeled Prometheus series.
func TestRunObservabilityEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	recs := readStream(t, postQuery(t, ts, QueryRequest{Query: tinyQuery, Trace: true}))

	// The trailing stats record carries the run id, quantiles and phases.
	stats := lastStats(t, recs)
	runID, _ := stats["runId"].(string)
	if runID == "" {
		t.Fatalf("stats record missing runId: %v", stats)
	}
	progress, ok := stats["progress"].(map[string]any)
	if !ok || progress["count"].(float64) == 0 {
		t.Fatalf("stats record missing progress quantiles: %v", stats)
	}
	for _, k := range []string{"firstMillis", "p10Millis", "p50Millis", "p90Millis", "lastMillis"} {
		if _, ok := progress[k]; !ok {
			t.Fatalf("progress missing %s: %v", k, progress)
		}
	}
	phases, ok := stats["phases"].(map[string]any)
	if !ok {
		t.Fatalf("stats record missing phases: %v", stats)
	}
	phaseList, _ := phases["phases"].([]any)
	if len(phaseList) == 0 {
		t.Fatalf("phase breakdown empty: %v", phases)
	}

	// The run log serves the same record, newest first.
	var runs struct{ Runs []RunRecord }
	getJSON(t, ts.URL+"/v1/runs", &runs)
	if len(runs.Runs) != 1 {
		t.Fatalf("/v1/runs returned %d records", len(runs.Runs))
	}
	rr := runs.Runs[0]
	if rr.ID != runID || rr.Engine != "ProgXe" || rr.Outcome != "completed" {
		t.Fatalf("run record = %+v", rr)
	}
	if rr.Progress.Count == 0 || len(rr.Phases.Phases) == 0 || !rr.HasTrace {
		t.Fatalf("run record missing observability payload: %+v", rr)
	}
	if rr.EngineStats.ResultCount == 0 {
		t.Fatalf("run record missing engine stats: %+v", rr)
	}
	var single RunRecord
	getJSON(t, ts.URL+"/v1/runs/"+runID, &single)
	if single.ID != runID {
		t.Fatalf("GET /v1/runs/%s = %+v", runID, single)
	}

	// The trace document must be a valid Chrome trace-event array:
	// metadata + complete + instant events with the required keys. That
	// is exactly what Perfetto's JSON importer consumes.
	tresp, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var events []map[string]any
	if err := json.NewDecoder(tresp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		counts[ph]++
		switch ph {
		case "M":
			if ev["name"] != "thread_name" {
				t.Fatalf("metadata event %v", ev)
			}
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
			fallthrough
		case "i":
			for _, k := range []string{"name", "pid", "tid", "ts"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("event missing %s: %v", k, ev)
				}
			}
		default:
			t.Fatalf("unexpected event phase %q: %v", ph, ev)
		}
	}
	if counts["M"] == 0 || counts["X"] == 0 {
		t.Fatalf("trace lacks metadata or span events: %v", counts)
	}

	// Prometheus exposes the per-engine progress histogram and the phase
	// seconds counter with lane attribution.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`progxe_run_progress_seconds_bucket{engine="ProgXe",milestone="first",le="+Inf"} 1`,
		`progxe_run_progress_seconds_bucket{engine="ProgXe",milestone="p90",le="+Inf"} 1`,
		`progxe_run_progress_seconds_count{engine="ProgXe",milestone="last"} 1`,
		`progxe_phase_seconds_total{phase="commit",lane="sequencer"}`,
		`progxe_phase_seconds_total{phase="sched",lane="sequencer"}`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, b)
		}
	}
}

// TestRunTraceAbsentUnlessRequested: tracing is opt-in per request, and the
// endpoint says how to get one.
func TestRunTraceAbsentUnlessRequested(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	recs := readStream(t, postQuery(t, ts, QueryRequest{Query: tinyQuery}))
	runID := lastStats(t, recs)["runId"].(string)

	var rr RunRecord
	getJSON(t, ts.URL+"/v1/runs/"+runID, &rr)
	if rr.HasTrace {
		t.Fatalf("untraced run advertises a trace: %+v", rr)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace for untraced run: status %d", resp.StatusCode)
	}
}

// TestRunLogEviction: the ring keeps the newest RunLogSize records and drops
// evicted traces with them.
func TestRunLogEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{RunLogSize: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		recs := readStream(t, postQuery(t, ts, QueryRequest{Query: tinyQuery, Trace: true}))
		ids = append(ids, lastStats(t, recs)["runId"].(string))
	}
	var runs struct{ Runs []RunRecord }
	getJSON(t, ts.URL+"/v1/runs", &runs)
	if len(runs.Runs) != 2 || runs.Runs[0].ID != ids[2] || runs.Runs[1].ID != ids[1] {
		t.Fatalf("run log after eviction = %+v", runs.Runs)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + ids[0] + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace still served: status %d", resp.StatusCode)
	}
}

// TestStructuredRunLogging: one slog line per run with id, engine, outcome
// and phase totals, and a Warn line when the run crosses the slow threshold.
func TestStructuredRunLogging(t *testing.T) {
	var buf strings.Builder
	_, ts := newTestServer(t, Config{
		Logger:           slog.New(slog.NewTextHandler(&buf, nil)),
		SlowRunThreshold: time.Nanosecond, // everything is slow
	})
	readStream(t, postQuery(t, ts, QueryRequest{Query: tinyQuery}))
	out := buf.String()
	for _, want := range []string{"msg=\"slow run\"", "id=r000001", "engine=ProgXe", "outcome=completed", "phases="} {
		if !strings.Contains(out, want) {
			t.Fatalf("run log line missing %q in:\n%s", want, out)
		}
	}

	var jbuf strings.Builder
	_, ts2 := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&jbuf, nil))})
	readStream(t, postQuery(t, ts2, QueryRequest{Query: tinyQuery}))
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(jbuf.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatalf("JSON log line: %v in %q", err, jbuf.String())
	}
	if line["msg"] != "run" || line["engine"] != "ProgXe" || line["outcome"] != "completed" {
		t.Fatalf("JSON run line = %v", line)
	}
}

// --- minimal Prometheus text-format validator ---------------------------

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)\})? ([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]Inf|NaN)$`)
)

// validatePrometheus checks the exposition text: every sample belongs to a
// declared # TYPE family (histogram samples may use the _bucket/_sum/_count
// suffixes), label syntax parses, histogram buckets are cumulative, and the
// +Inf bucket of every histogram series equals its _count.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}       // family -> type
	bucketPrev := map[string]float64{} // family+labels-sans-le -> last bucket value
	bucketInf := map[string]float64{}  // family+labels-sans-le -> +Inf bucket value
	counts := map[string]float64{}     // family+labels -> _count value

	family := func(name string) (string, bool) {
		if typ, ok := types[name]; ok {
			return typ, true
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok {
				if typ, ok := types[base]; ok && typ == "histogram" {
					return typ, true
				}
			}
		}
		return "", false
	}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP") {
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if _, ok := family(name); !ok {
			t.Fatalf("line %d: sample %s has no # TYPE declaration", ln+1, name)
		}
		v, err := strconv.ParseFloat(strings.Replace(value, "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q", ln+1, value)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le := ""
			var rest []string
			for _, pair := range strings.Split(labels, ",") {
				if cut, ok := strings.CutPrefix(pair, "le="); ok {
					le = cut
				} else {
					rest = append(rest, pair)
				}
			}
			if le == "" {
				t.Fatalf("line %d: bucket without le label: %q", ln+1, line)
			}
			series := base + "{" + strings.Join(rest, ",") + "}"
			if prev, ok := bucketPrev[series]; ok && v < prev {
				t.Fatalf("line %d: non-cumulative bucket %s: %v < %v", ln+1, series, v, prev)
			}
			bucketPrev[series] = v
			if le == `"+Inf"` {
				bucketInf[series] = v
			}
		case strings.HasSuffix(name, "_count") && types[name] == "":
			base := strings.TrimSuffix(name, "_count")
			key := base + "{" + labels + "}"
			counts[key] = v
		}
	}
	if len(types) == 0 {
		t.Fatal("no metric families found")
	}
	if len(bucketInf) == 0 {
		t.Fatal("no histogram buckets found")
	}
	for series := range bucketInf {
		c, ok := counts[series]
		if !ok {
			t.Fatalf("histogram series %s has no _count sample", series)
		}
		if c != bucketInf[series] {
			t.Fatalf("series %s: +Inf bucket %v != _count %v", series, bucketInf[series], c)
		}
	}
}

// TestPrometheusExpositionValid runs traced queries on two engines and then
// validates the full /metrics payload with the text-format checker.
func TestPrometheusExpositionValid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, eng := range []string{"progxe", "jfsl"} {
		readStream(t, postQuery(t, ts, QueryRequest{Query: tinyQuery, Engine: eng}))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	validatePrometheus(t, string(b))

	// Both engines must appear as distinct label values on the progress
	// histogram.
	for _, eng := range []string{"ProgXe", "JF-SL"} {
		want := fmt.Sprintf(`progxe_run_progress_seconds_bucket{engine=%q,milestone="first",le="+Inf"} 1`, eng)
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, b)
		}
	}
}

// TestRunLogQueryCutOnRuneBoundary posts a query whose 512th byte falls
// inside a two-byte letter: the run log must keep a valid UTF-8 prefix of
// the query, not a split character that JSON turns into U+FFFD.
func TestRunLogQueryCutOnRuneBoundary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.ReplaceAll(tinyQuery, "total", "ê")
	q := strings.Repeat(" ", 511-strings.Index(body, "ê")) + body // ê spans bytes 511 and 512
	readStream(t, postQuery(t, ts, QueryRequest{Query: q}))

	var runs struct{ Runs []RunRecord }
	getJSON(t, ts.URL+"/v1/runs", &runs)
	if len(runs.Runs) != 1 {
		t.Fatalf("/v1/runs returned %d records", len(runs.Runs))
	}
	got := runs.Runs[0].Query
	kept, cut := strings.CutSuffix(got, "…")
	if !cut || !utf8.ValidString(got) || !strings.HasPrefix(q, kept) {
		t.Fatalf("run-log query %q is not a valid UTF-8 prefix of the posted query", got)
	}
	if len(kept) != 511 {
		t.Fatalf("kept %d bytes, want the 511 before the split letter", len(kept))
	}
}
