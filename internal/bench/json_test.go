package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mkReport(progxeMS, ssmjMS float64, workers int) *JSONReport {
	return &JSONReport{
		Scale: 1,
		Figures: []JSONFigure{{
			Figure: "13c",
			Runs: []JSONRun{
				{Engine: "ProgXe", N: 1800, Dims: 4, Dist: "anti-correlated", Sigma: 0.1, Workers: workers, TotalMS: progxeMS},
				{Engine: "SSMJ", N: 1800, Dims: 4, Dist: "anti-correlated", Sigma: 0.1, TotalMS: ssmjMS},
			},
		}},
	}
}

func TestJSONReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := mkReport(40, 160, 4)
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got JSONReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.GoMaxProcs == 0 {
		t.Fatal("GoMaxProcs not recorded")
	}
	run := got.Figures[0].Runs[0]
	if run.Workers != 4 || run.Engine != "ProgXe" {
		t.Fatalf("round-trip run: %+v", run)
	}
}

func TestWithWorkersVariants(t *testing.T) {
	specs := ComparisonEngines()
	out := AddWorkerVariants(specs, 4)
	// ProgXe and ProgXe+ gain variants; SSMJ does not.
	if len(out) != len(specs)+2 {
		t.Fatalf("AddWorkerVariants produced %d specs, want %d", len(out), len(specs)+2)
	}
	v := out[len(specs)]
	if v.Name != "ProgXe (w=4)" || v.Workers != 4 {
		t.Fatalf("variant spec: %+v", v)
	}
	if v.New() == nil {
		t.Fatal("variant constructor broken")
	}
	if _, ok := specs[2].WithWorkers(4); ok {
		t.Fatal("SSMJ must not grow a worker variant")
	}
}
