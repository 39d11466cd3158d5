package bench

import (
	"io"
	"strings"
	"testing"

	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/grid"
)

// TestPruneSetupFigureSmoke drives the S2 harness end to end on a shrunken
// fine-partition problem: both pruning variants must see the same candidate
// set and mark the identical dominated subset over real (engine-built)
// region enclosures — the randomized property test's complement with
// production geometry.
func TestPruneSetupFigureSmoke(t *testing.T) {
	wl := Workload{N: 2000, Dims: 3, Dist: datagen.AntiCorrelated, Sigma: 0.001, Seed: 41}
	p, err := wl.Problem()
	if err != nil {
		t.Fatal(err)
	}
	rects, err := core.PlanRects(p, core.Options{Partitioning: core.PartitionKD, InputCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) < 200 {
		t.Fatalf("fixture produced only %d candidates", len(rects))
	}
	idx := grid.DominatedRects(rects)
	orc := grid.DominatedRectsQuadratic(rects, 0)
	for i := range idx {
		if idx[i] != orc[i] {
			t.Fatalf("verdict %d diverges on engine-built rects: index %v, oracle %v", i, idx[i], orc[i])
		}
	}

	f := Figure{ID: "S2", Kind: PruneSetup, Workload: wl,
		PruneOpts: &core.Options{Partitioning: core.PartitionKD, InputCells: 3}}
	runs := runPruneSetup(f, io.Discard, 1)
	if len(runs) != 2 ||
		runs[0].Stats.Regions != runs[1].Stats.Regions ||
		runs[0].Stats.RegionsPruned != runs[1].Stats.RegionsPruned {
		t.Fatalf("S2 harness runs disagree: %+v", runs)
	}
	if runs[0].Stats.Regions != len(rects) {
		t.Fatalf("harness candidates = %d, want %d", runs[0].Stats.Regions, len(rects))
	}
}

// TestWriteSummarySpeedupTable pins the markdown digest: serial runs paired
// with their "(w=N)" variants by figure and workload, speedup = serial over
// parallel.
func TestWriteSummarySpeedupTable(t *testing.T) {
	r := &JSONReport{Scale: 1, GoMaxProcs: 4, Figures: []JSONFigure{{
		Figure: "11f",
		Runs: []JSONRun{
			{Engine: "ProgXe", N: 100, Dims: 4, Dist: "anti-correlated", Sigma: 0.1, TotalMS: 80},
			{Engine: "ProgXe (w=4)", N: 100, Dims: 4, Dist: "anti-correlated", Sigma: 0.1, Workers: 4, TotalMS: 40},
			{Engine: "SSMJ", N: 100, Dims: 4, Dist: "anti-correlated", Sigma: 0.1, TotalMS: 200},
		},
	}}}
	var sb strings.Builder
	WriteSummary(&sb, r)
	out := sb.String()
	for _, want := range []string{"w=4 vs serial", "| 11f | ProgXe |", "2.00×", "median 2.00×"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "SSMJ") {
		t.Fatalf("summary includes an unpaired engine:\n%s", out)
	}

	var empty strings.Builder
	WriteSummary(&empty, &JSONReport{Scale: 1, GoMaxProcs: 1})
	if !strings.Contains(empty.String(), "No serial/parallel run pairs") {
		t.Fatalf("empty report digest = %q", empty.String())
	}
}

// TestWriteSummaryAttribution pins the serial-vs-parallel attribution
// section: parallel runs carrying profiler numbers publish sequencer time,
// worker time, and the serial-commit share.
func TestWriteSummaryAttribution(t *testing.T) {
	r := &JSONReport{Scale: 1, GoMaxProcs: 4, Figures: []JSONFigure{{
		Figure: "11f",
		Runs: []JSONRun{
			{Engine: "ProgXe", N: 100, Dims: 4, Dist: "anti-correlated", Sigma: 0.1,
				TotalMS: 80, TT50MS: 30, TT90MS: 60},
			{Engine: "ProgXe (w=4)", N: 100, Dims: 4, Dist: "anti-correlated", Sigma: 0.1,
				Workers: 4, TotalMS: 40, TT50MS: 15, TT90MS: 30,
				SeqMS: 35, WorkerMS: 90, SerialCommitFrac: 0.55},
		},
	}}}
	var sb strings.Builder
	WriteSummary(&sb, r)
	out := sb.String()
	for _, want := range []string{
		"TT-50% ms (s→p)", "30.0→15.0", "60.0→30.0",
		"Serial-vs-parallel attribution (w=4, profiler)",
		"| 35.0 | 90.0 | 55.0% |",
		"median 55.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestObsOverheadGate runs the overhead gate's measurement once on the
// smallest real figure pairing; it only asserts the harness produces sane
// numbers, not the 2% bound (that is CI's bench-smoke job, at fixed scale).
func TestObsOverheadGate(t *testing.T) {
	on, off, err := ObsOverhead("11f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if on <= 0 || off <= 0 {
		t.Fatalf("gate totals on=%.2fms off=%.2fms", on, off)
	}
	if _, _, err := ObsOverhead("nope", 1); err == nil {
		t.Fatal("unknown figure must error")
	}
}

// TestFinePartitionRegionFloor pins the committed S2 workload's scale: the
// kd fanout must pair into at least 10⁴ candidate regions, the range the
// pruning acceptance gates on.
func TestFinePartitionRegionFloor(t *testing.T) {
	f, err := FigureByID("S2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Workload.Problem()
	if err != nil {
		t.Fatal(err)
	}
	rects, err := core.PlanRects(p, *f.PruneOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) < 10000 {
		t.Fatalf("fine-partition workload pairs into %d candidate regions, want ≥ 10⁴", len(rects))
	}
}
