package progxe

import (
	"net/http"

	"progxe/internal/engines"
	"progxe/internal/server"
)

// The service layer (internal/server) turns the library into a progressive
// query service: relations are registered in a concurrency-safe catalog,
// PREFERRING-dialect queries arrive over HTTP, and each skyline result is
// streamed (NDJSON or Server-Sent Events) the moment the engine proves it
// final. Runs are admission-controlled and cancellable — a disconnected
// client aborts its engine run through the ContextEngine contract.
type (
	// Server is the progressive query service; it implements http.Handler.
	Server = server.Server
	// ServerConfig tunes the service; the zero value is fully usable.
	ServerConfig = server.Config
	// ServerStats is a point-in-time snapshot of the service counters,
	// including the time-to-first-result histogram.
	ServerStats = server.Snapshot
	// ExecOptions mirrors the wire "exec" object shared by /v1/query and
	// /v1/subscribe: the run-shaping knobs (workers) under one name,
	// and the only spelling of them a request body has.
	ExecOptions = server.ExecRequest
)

// NewServer builds the progressive query service. Mount it on any mux or
// serve it directly:
//
//	srv := progxe.NewServer(progxe.ServerConfig{MaxConcurrentRuns: 16})
//	srv.Catalog().Register(myRelation)
//	log.Fatal(http.ListenAndServe(":8080", srv))
//
// Catalog() is the registry the HTTP endpoints share: a Register that
// replaces a relation, or a Remove, ends the live subscriptions reading it
// (relation_replaced / relation_dropped) exactly as an upload or DELETE
// does. See cmd/progxe-serve for the standalone binary.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// ServerEngineNames returns the engine names accepted by the query endpoint.
func ServerEngineNames() []string { return engines.Names() }

var _ http.Handler = (*Server)(nil)
