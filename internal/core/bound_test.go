package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/smj"
)

// TestOverBoundGridIsRefused: a grid of more than grid.MaxCells = 2²¹ cells
// is refused at plan time, with an error naming its cell count and the
// bound, by every entry point — an output grid through OutputCells or the
// auto resolution at d = 22 (2²² cells), an input grid through InputCells —
// while a grid of exactly 2²¹ cells still runs and gives the naive skyline.
func TestOverBoundGridIsRefused(t *testing.T) {
	p3 := smokeProblem(t, 400, 3, datagen.Independent, 0.05, 5)
	p22 := liveProblem(t, 20, 22, datagen.Independent, 0.2, 6)
	refusal := func(t *testing.T, entry, cells string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), cells+" cells") || !strings.Contains(err.Error(), "2097152") {
			t.Fatalf("%s: err = %v, want a refusal naming %s cells and the 2097152 bound", entry, err, cells)
		}
	}
	for _, c := range []struct {
		name  string
		p     *smj.Problem
		opts  Options
		cells string
	}{
		{"output k=129 d=3", p3, Options{OutputCells: 129}, "2146689"},
		{"input g=129 d=3", p3, Options{InputCells: 129}, "2146689"},
		{"output auto d=22", p22, Options{}, "4194304"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.opts).PrepareContext(context.Background(), c.p)
			refusal(t, "PrepareContext", c.cells, err)
			var got smj.Collector
			_, err = New(c.opts).Run(c.p, &got)
			refusal(t, "Run", c.cells, err)
			if len(got.Results) != 0 {
				t.Fatalf("Run emitted %d results before refusing", len(got.Results))
			}
			_, err = Explain(c.p, c.opts)
			refusal(t, "Explain", c.cells, err)
		})
	}
	// The live grid is 2^d cells from d = 13 on.
	_, err := StageLive(p22)
	refusal(t, "StageLive", "4194304", err)

	// A fine input grid keeps the regions, and so the covered cells, few.
	for _, opts := range []Options{{OutputCells: 128, InputCells: 16}, {InputCells: 128}} {
		requireOracleAnswer(t, fmt.Sprintf("%+v (2^21 cells)", opts), p3, opts)
	}
}
