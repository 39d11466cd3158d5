package server

import (
	"progxe/internal/core"
)

// ExecRequest nests the run-shaping knobs of a query or subscribe request
// under one "exec" object — the only spelling of them.
type ExecRequest struct {
	// Workers requests parallel region processing with this many worker
	// goroutines (ProgXe engines only; others ignore it). Parallel runs
	// stream the exact same results in the exact same order as serial ones —
	// this knob trades CPU for latency, never determinism. 0 (the default)
	// runs serial.
	Workers int `json:"workers,omitempty"`
	// Ranker selects the progressive scheduler's benefit model:
	// "benefit-cost" (the default, Equation 8 with exact ProgCount) or
	// "cardinality" (O(1) refreshes that skip ProgCount).
	Ranker string `json:"ranker,omitempty"`
}

// ExecInfo echoes the exec knobs a run was actually granted, after
// resolveExec's clamping. It appears as the "exec" object in the stream's
// run record and in /v1/runs entries — granted equals effective, so records
// stay honest.
type ExecInfo struct {
	Workers int    `json:"workers,omitempty"`
	Ranker  string `json:"ranker,omitempty"`
}

// resolveExec reconciles a request's exec knobs against the server caps. It
// is the single place clamp-vs-reject semantics live:
//
//   - Negative workers clamp to 0 — zero and "no parallelism" coincide, so
//     every negative has a meaningful reading.
//   - Workers above the server cap (MaxRunWorkers) are clamped, not
//     rejected — parallelism changes latency, never results, so over-asking
//     is harmless.
//   - An unknown ranker is rejected (bad_exec); the echoed ExecInfo always
//     carries the resolved ranker name.
func (s *Server) resolveExec(req *QueryRequest) (ExecInfo, core.RankerKind, *httpError) {
	var ex ExecRequest
	if req.Exec != nil {
		ex = *req.Exec
	}
	ranker, err := core.ParseRanker(ex.Ranker)
	if err != nil {
		return ExecInfo{}, 0, httpErrorf(400, errBadExec, "%v", err)
	}
	workers := min(max(ex.Workers, 0), s.cfg.MaxRunWorkers)
	return ExecInfo{Workers: workers, Ranker: ranker.String()}, ranker, nil
}
