package server

// ExecRequest nests the run-shaping knobs of a query or subscribe request
// under one "exec" object — the only spelling of them.
type ExecRequest struct {
	// Workers requests parallel region processing with this many worker
	// goroutines (ProgXe engines only; others ignore it). Parallel runs
	// stream the exact same results in the exact same order as serial ones —
	// this knob trades CPU for latency, never determinism. 0 (the default)
	// runs serial.
	Workers int `json:"workers,omitempty"`
}

// ExecInfo echoes the exec knobs a run was actually granted, after
// resolveExec's clamping. It appears as the "exec" object in the stream's
// run record and in /v1/runs entries — granted equals effective, so records
// stay honest.
type ExecInfo struct {
	Workers int `json:"workers,omitempty"`
}

// resolveExec reconciles a request's exec knobs against the server caps:
// negative workers clamp to 0 (zero and "no parallelism" coincide), and
// workers above the server cap (MaxRunWorkers) are clamped, not rejected —
// parallelism changes latency, never results, so over-asking is harmless.
func (s *Server) resolveExec(req *QueryRequest) ExecInfo {
	if req.Exec == nil {
		return ExecInfo{}
	}
	return ExecInfo{Workers: min(max(req.Exec.Workers, 0), s.cfg.MaxRunWorkers)}
}
