package mapping_test

import (
	"fmt"
	"strings"
	"testing"

	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/query"
)

// TestMapKernelCovers requires the queries the benchmark sends — the d = 4
// per-dimension sum, with and without a weighted term — to reach Map as
// compiled loops, minimized and maximized alike (HIGHEST wraps each function
// in Scale{-1}), so a shape change upstream cannot silently put them back on
// the tree walk.
func TestMapKernelCovers(t *testing.T) {
	r, tr, err := datagen.GeneratePair(datagen.Spec{N: 50, Dims: 4, Distribution: datagen.Independent, Selectivity: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, weight := range []string{"", "2*"} {
		for _, order := range []string{"LOWEST", "HIGHEST"} {
			var sel, pref []string
			for j := 0; j < 4; j++ {
				sel = append(sel, fmt.Sprintf("(R.a%d + %sT.a%d) AS x%d", j, weight, j, j))
				pref = append(pref, fmt.Sprintf("%s(x%d)", order, j))
			}
			sql := "SELECT " + strings.Join(sel, ", ") + " FROM R R, T T WHERE R.jkey = T.jkey PREFERRING " + strings.Join(pref, " AND ")
			q, err := query.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := q.Compile(r, tr)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := p.Canonicalized()
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < cp.Maps.Dims(); j++ {
				if !mapping.Compiled(cp.Maps, j) {
					t.Errorf("%s: %s falls back to the tree walk", sql, cp.Maps.Func(j).Expr)
				}
			}
		}
	}
}
