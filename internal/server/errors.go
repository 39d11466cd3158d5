package server

import (
	"fmt"
	"net/http"
)

// Stable error codes. Every error the service produces — HTTP error bodies
// and in-stream terminal error records alike — carries exactly one of these
// slugs, so clients can branch on "code" instead of parsing prose. The
// message is advisory and may change; the code is the contract.
const (
	// errBadRequest: the request body or its fields are malformed.
	errBadRequest = "bad_request"
	// errBadFormat: the "format" field names neither ndjson nor sse.
	errBadFormat = "bad_format"
	// errBadQuery: the query text failed to parse or compile.
	errBadQuery = "bad_query"
	// errUnknownEngine: the "engine" field names no registered engine.
	errUnknownEngine = "unknown_engine"
	// errRelationNotFound: a named relation is not in the catalog.
	errRelationNotFound = "relation_not_found"
	// errBadRelation: a relation upload, generate spec, or name is invalid.
	errBadRelation = "bad_relation"
	// errCatalogFull: registration would exceed a catalog resource cap.
	errCatalogFull = "catalog_full"
	// errRunNotFound: the run id is not in the run log.
	errRunNotFound = "run_not_found"
	// errTraceNotFound: the run has no stored trace document.
	errTraceNotFound = "trace_not_found"
	// errBusy: admission control shed the request; retry shortly.
	errBusy = "busy"
	// errUnavailable: run setup was aborted by shutdown or timeout.
	errUnavailable = "unavailable"
	// errReplayTruncated: the client fell behind a bounded replay ring
	// (a run's record stream or the subscription change feed).
	errReplayTruncated = "replay_truncated"
	// errRelationDropped: a subscribed relation was deleted mid-stream.
	errRelationDropped = "relation_dropped"
	// errRelationReplaced: a subscribed relation was replaced wholesale
	// (upload/generate), invalidating the subscription's snapshot.
	errRelationReplaced = "relation_replaced"
	// errBadChange: a change-feed entry failed validation (arity, non-finite
	// value, duplicate insert id, delete of a missing id, wrong relation).
	errBadChange = "bad_change"
	// errInternal: unexpected server-side failure; as a terminal stream
	// record, the run's engine panicked.
	errInternal = "internal"
)

// errorRecord is the one structured error shape: HTTP error bodies and
// in-stream terminal error records are both exactly this JSON object.
type errorRecord struct {
	Type    string `json:"type"` // "error"
	Code    string `json:"code"`
	Message string `json:"message"`
}

// newErrorRecord builds the shared error shape.
func newErrorRecord(code, format string, args ...any) errorRecord {
	return errorRecord{Type: "error", Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeError writes the structured error envelope as an HTTP response.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, newErrorRecord(code, format, args...))
}

// httpError is an error annotated with the HTTP status and stable code it
// should surface as; ApplyChange returns these so both the HTTP handler and
// programmatic callers see one classification.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}
