package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"progxe/internal/datagen"
)

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 19 {
		t.Fatalf("figure count = %d, want 19 (10a-f, 11a-f, 12a-b, 13a-c, S2, L1)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
		if f.Caption == "" || f.Expect == "" {
			t.Fatalf("figure %s incomplete", f.ID)
		}
		if len(f.Engines) == 0 && f.Kind != PruneSetup && f.Kind != LiveApply {
			t.Fatalf("figure %s has no engines", f.ID)
		}
		if f.Kind == TotalTime && len(f.Sweep) == 0 {
			t.Fatalf("total-time figure %s without sweep", f.ID)
		}
		got, err := FigureByID(f.ID)
		if err != nil || got.ID != f.ID {
			t.Fatalf("FigureByID(%s): %v", f.ID, err)
		}
	}
	if _, err := FigureByID("99z"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestWorkloadProblem(t *testing.T) {
	w := Workload{N: 100, Dims: 3, Dist: datagen.Independent, Sigma: 0.1, Seed: 1}
	p, err := w.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if p.Left.Len() != 100 || p.Maps.Dims() != 3 {
		t.Fatalf("problem shape wrong: N=%d d=%d", p.Left.Len(), p.Maps.Dims())
	}
	if w.String() == "" {
		t.Fatal("workload must render")
	}
}

func TestRunRecordsProgress(t *testing.T) {
	w := Workload{N: 400, Dims: 3, Dist: datagen.AntiCorrelated, Sigma: 0.05, Seed: 2}
	r := Run(ProgXeEngines()[0], w)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Results == 0 || len(r.Points) != r.Results {
		t.Fatalf("progress curve: %d points for %d results", len(r.Points), r.Results)
	}
	// Curve is monotone in both time and count.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Elapsed < r.Points[i-1].Elapsed || r.Points[i].Count != r.Points[i-1].Count+1 {
			t.Fatalf("non-monotone curve at %d: %+v -> %+v", i, r.Points[i-1], r.Points[i])
		}
	}
	if r.CountAt(r.Total) != r.Results {
		t.Fatalf("CountAt(total) = %d, want %d", r.CountAt(r.Total), r.Results)
	}
	if r.CountAt(0) != 0 {
		t.Fatal("CountAt(0) must be 0")
	}
	if ft := r.FractionTime(1.0); ft <= 0 || ft > r.Total {
		t.Fatalf("FractionTime(1.0) = %v", ft)
	}
	ds := r.Downsample(10)
	if len(ds) > 11 || ds[len(ds)-1] != r.Points[len(r.Points)-1] {
		t.Fatalf("downsample wrong: %d points", len(ds))
	}
	if !strings.Contains(r.Summary(), "ProgXe") {
		t.Fatalf("summary = %q", r.Summary())
	}
}

// TestOrderingProducesEarlierResults asserts Fig. 10's qualitative claim on
// a fixed seed: by the time the random-order variant has produced nothing,
// the ProgOrder variant has already emitted a meaningful share of results.
func TestOrderingProducesEarlierResults(t *testing.T) {
	w := Workload{N: 2000, Dims: 4, Dist: datagen.AntiCorrelated, Sigma: 0.01, Seed: 10}
	p, err := w.Problem()
	if err != nil {
		t.Fatal(err)
	}
	engines := ProgXeEngines()
	ordered := RunOn(engines[0], w, p) // ProgXe
	random := RunOn(engines[2], w, p)  // ProgXe (No-Order)
	if ordered.Err != nil || random.Err != nil {
		t.Fatalf("errs: %v, %v", ordered.Err, random.Err)
	}
	if ordered.Results != random.Results {
		t.Fatalf("result counts differ: %d vs %d", ordered.Results, random.Results)
	}
	// At the moment the random variant emitted its first result, the
	// ordered variant must already be ahead.
	atRandomFirst := ordered.CountAt(random.First)
	if atRandomFirst < 1 {
		t.Fatalf("ordered variant had %d results when random emitted its first (ordered first at %v, random at %v)",
			atRandomFirst, ordered.First, random.First)
	}
	if ordered.First > random.First {
		t.Fatalf("ordered first result (%v) later than random (%v)", ordered.First, random.First)
	}
}

// TestAntiCorrelatedBeatsSSMJ asserts Fig. 11c/13c's shape: on
// anti-correlated data ProgXe's first result arrives well before SSMJ's, and
// its total time is smaller.
func TestAntiCorrelatedBeatsSSMJ(t *testing.T) {
	w := Workload{N: 2500, Dims: 4, Dist: datagen.AntiCorrelated, Sigma: 0.01, Seed: 11}
	p, err := w.Problem()
	if err != nil {
		t.Fatal(err)
	}
	engines := ComparisonEngines()
	progxe := RunOn(engines[0], w, p)
	ssmj := RunOn(engines[2], w, p)
	if progxe.Err != nil || ssmj.Err != nil {
		t.Fatalf("errs: %v %v", progxe.Err, ssmj.Err)
	}
	if progxe.First >= ssmj.First {
		t.Fatalf("ProgXe first (%v) must precede SSMJ first (%v)", progxe.First, ssmj.First)
	}
	if progxe.Total >= ssmj.Total {
		t.Fatalf("ProgXe total (%v) must beat SSMJ total (%v)", progxe.Total, ssmj.Total)
	}
}

func TestRunFigureSmoke(t *testing.T) {
	t.Setenv("PROGXE_BENCH_SCALE", "0.1")
	var buf bytes.Buffer
	f, err := FigureByID("10c")
	if err != nil {
		t.Fatal(err)
	}
	runs := RunFigure(f, &buf, true, 1)
	if len(runs) != len(f.Engines) {
		t.Fatalf("got %d runs", len(runs))
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 10c") || !strings.Contains(out, "ProgXe") {
		t.Fatalf("output missing content:\n%s", out)
	}

	f13, err := FigureByID("13a")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	runs = RunFigure(f13, &buf, false, 1)
	if len(runs) != len(f13.Engines)*len(f13.Sweep) {
		t.Fatalf("sweep runs = %d", len(runs))
	}
	if !strings.Contains(buf.String(), "σ") {
		t.Fatal("total-time table missing header")
	}
}

// TestRunLiveApplySmoke pins the incremental-vs-recompute figure's shape: the
// three arms run, the apply medians are positive, and at even the smoke scale
// a resident apply beats recomputing from scratch.
func TestRunLiveApplySmoke(t *testing.T) {
	t.Setenv("PROGXE_BENCH_SCALE", "0.1")
	f, err := FigureByID("L1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runs := RunFigure(f, &buf, false, 1)
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want recompute + insert + delete:\n%s", len(runs), buf.String())
	}
	byName := map[string]RunResult{}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Engine, r.Err)
		}
		byName[r.Engine] = r
	}
	recompute := byName["ProgXe (recompute)"]
	for _, arm := range []string{"LiveSpace (insert apply)", "LiveSpace (delete apply)"} {
		r, ok := byName[arm]
		if !ok || r.Total <= 0 {
			t.Fatalf("arm %q missing or unmeasured:\n%s", arm, buf.String())
		}
		if r.Total >= recompute.Total {
			t.Fatalf("%s median %v not below recompute %v", arm, r.Total, recompute.Total)
		}
	}
	if !strings.Contains(buf.String(), "incremental speedup over recompute") {
		t.Fatalf("speedup line missing:\n%s", buf.String())
	}
}

func TestScaleEnv(t *testing.T) {
	t.Setenv("PROGXE_BENCH_SCALE", "")
	if Scale() != 1 {
		t.Fatal("default scale must be 1")
	}
	t.Setenv("PROGXE_BENCH_SCALE", "2.5")
	if Scale() != 2.5 {
		t.Fatal("scale must parse")
	}
	t.Setenv("PROGXE_BENCH_SCALE", "bogus")
	if Scale() != 1 {
		t.Fatal("bad scale must fall back to 1")
	}
	t.Setenv("PROGXE_BENCH_SCALE", "-1")
	if Scale() != 1 {
		t.Fatal("negative scale must fall back to 1")
	}
	if scaled(100) != 100*1 {
		t.Fatal("scaled wrong")
	}
	t.Setenv("PROGXE_BENCH_SCALE", "0.0001")
	if scaled(100) != 16 {
		t.Fatal("scaled floor must apply")
	}
	_ = time.Second
}
