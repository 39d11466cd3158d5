package bench

import (
	"fmt"
	"time"
)

// CheckResult is one verdict of a figure's qualitative shape check.
type CheckResult struct {
	Figure string
	Claim  string
	Holds  bool
	Detail string
}

// String renders the verdict as a ✓/✗ line.
func (c CheckResult) String() string {
	mark := "✓"
	if !c.Holds {
		mark = "✗"
	}
	return fmt.Sprintf("%s Fig %s: %s — %s", mark, c.Figure, c.Claim, c.Detail)
}

// CheckFigure evaluates the paper's qualitative claims against the measured
// runs of one figure. Small workloads sit below some crossovers the paper
// observes at N = 500K; the checks encode the claims that are expected to
// hold at laptop scale (EXPERIMENTS.md discusses the scale-dependent ones).
func CheckFigure(f Figure, runs []RunResult) []CheckResult {
	byName := map[string]RunResult{}
	for _, r := range runs {
		if _, dup := byName[r.Engine]; !dup {
			byName[r.Engine] = r
		}
	}
	var out []CheckResult
	switch {
	case f.ID == "10b" || f.ID == "10c":
		// The paper claims the ordering benefit on independent and
		// anti-correlated data; on correlated data (10a) it reports the
		// variants as identical, so no ordering check applies there.
		ordered, o1 := byName["ProgXe"]
		random, o2 := byName["ProgXe (No-Order)"]
		if o1 && o2 && ordered.Results > 0 {
			// Ordering must not delay the first result and must be strictly
			// ahead on the anti-correlated workload where the paper's gap
			// is largest.
			tol := ordered.Total / 10
			holds := ordered.First <= random.First+tol
			if f.ID == "10c" {
				holds = ordered.First < random.First
			}
			out = append(out, CheckResult{
				Figure: f.ID,
				Claim:  "ProgOrder emits no later than random ordering",
				Holds:  holds,
				Detail: fmt.Sprintf("first: %v vs %v", ordered.First.Round(time.Microsecond), random.First.Round(time.Microsecond)),
			})
		}
	case f.ID == "11c" || f.ID == "11f" || f.ID == "12b":
		px, o1 := byName["ProgXe"]
		ssmj, o2 := byName["SSMJ"]
		if o1 && o2 {
			out = append(out, CheckResult{
				Figure: f.ID,
				Claim:  "ProgXe streams before SSMJ's first batch (anti-correlated)",
				Holds:  px.First < ssmj.First && px.Results > 0,
				Detail: fmt.Sprintf("first: %v vs %v", px.First.Round(time.Millisecond), ssmj.First.Round(time.Millisecond)),
			})
			out = append(out, CheckResult{
				Figure: f.ID,
				Claim:  "ProgXe completes before SSMJ (anti-correlated)",
				Holds:  px.Total < ssmj.Total,
				Detail: fmt.Sprintf("total: %v vs %v", px.Total.Round(time.Millisecond), ssmj.Total.Round(time.Millisecond)),
			})
		}
	case f.ID == "L1":
		recompute, o1 := byName["ProgXe (recompute)"]
		ins, o2 := byName["LiveSpace (insert apply)"]
		del, o3 := byName["LiveSpace (delete apply)"]
		if o1 && o2 && o3 && ins.Total > 0 && del.Total > 0 {
			insX := float64(recompute.Total) / float64(ins.Total)
			delX := float64(recompute.Total) / float64(del.Total)
			out = append(out, CheckResult{
				Figure: f.ID,
				Claim:  "median single-tuple apply ≥10× faster than recompute",
				Holds:  insX >= 10 && delX >= 10,
				Detail: fmt.Sprintf("recompute %v vs insert %v (%.0f×), delete %v (%.0f×)",
					recompute.Total.Round(time.Microsecond), ins.Total.Round(time.Microsecond), insX,
					del.Total.Round(time.Microsecond), delX),
			})
		}
	case f.Kind == TotalTime && (f.ID == "13c" || f.ID == "10f"):
		// At the highest selectivity the lead engine must beat the last
		// column engine on anti-correlated data.
		var lead, tail RunResult
		haveLead, haveTail := false, false
		for _, r := range runs {
			if r.Workload.Sigma != 0.1 {
				continue
			}
			switch r.Engine {
			case "ProgXe":
				lead, haveLead = r, true
			case "SSMJ", "ProgXe (No-Order)":
				tail, haveTail = r, true
			}
		}
		if haveLead && haveTail {
			out = append(out, CheckResult{
				Figure: f.ID,
				Claim:  fmt.Sprintf("ProgXe total ≤ %s at σ=0.1 (anti-correlated)", tail.Engine),
				Holds:  lead.Total <= tail.Total,
				Detail: fmt.Sprintf("%v vs %v", lead.Total.Round(time.Millisecond), tail.Total.Round(time.Millisecond)),
			})
		}
	}
	// Universal check: every engine agrees on progressive totals — engines
	// on the same problem must produce consistent result counts (SSMJ's
	// faithful batch-1 may add a few false positives; allow ≤ 25%).
	base := -1
	consistent := true
	detail := ""
	for _, r := range runs {
		if r.Err != nil || f.Kind == TotalTime {
			continue
		}
		if base == -1 {
			base = r.Results
			continue
		}
		lo, hi := base*3/4, base*5/4+1
		if r.Results < lo || r.Results > hi {
			consistent = false
			detail = fmt.Sprintf("%s produced %d vs base %d", r.Engine, r.Results, base)
		}
	}
	if base >= 0 && f.Kind == Progress {
		if detail == "" {
			detail = fmt.Sprintf("base count %d", base)
		}
		out = append(out, CheckResult{
			Figure: f.ID,
			Claim:  "engines agree on the result set size",
			Holds:  consistent,
			Detail: detail,
		})
	}
	return out
}
