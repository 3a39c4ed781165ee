package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The v1 API reports every failure as one machine-readable envelope:
//
//	{"error": {"code": "snapshot_evicted", "message": "version 3 not retained ..."}}
//
// The code is a stable contract — clients branch on it; the message is
// human-readable detail and may change freely.
const (
	// ErrInvalidRequest: malformed body or parameters (400).
	ErrInvalidRequest = "invalid_request"
	// ErrRequestTooLarge: the request body exceeds MaxRequestBytes
	// (413).
	ErrRequestTooLarge = "request_too_large"
	// ErrInvalidQuery: the query text, tuple literal, or query type
	// failed to parse (400).
	ErrInvalidQuery = "invalid_query"
	// ErrInvalidOption: a traversal option (maxdepth/maxnodes/threshold)
	// or ?timeout= value is out of range (400).
	ErrInvalidOption = "invalid_option"
	// ErrUnknownNode: no such node in the snapshot (404).
	ErrUnknownNode = "unknown_node"
	// ErrNoProvenance: the tuple has no provenance at the queried node
	// in the pinned snapshot (404).
	ErrNoProvenance = "no_provenance"
	// ErrUnknownEndpoint: unmatched path (404).
	ErrUnknownEndpoint = "unknown_endpoint"
	// ErrMethodNotAllowed: wrong HTTP method (405, with an Allow header).
	ErrMethodNotAllowed = "method_not_allowed"
	// ErrSnapshotEvicted: the pinned version aged out of the retention
	// ring (410).
	ErrSnapshotEvicted = "snapshot_evicted"
	// ErrNoHistory: a deep-history query needs the on-disk snapshot
	// store and either none is attached (501) or the store has no
	// sighting of the tuple in its retained history (404).
	ErrNoHistory = "no_history"
	// ErrQueryCancelled: the client went away mid-walk; the traversal
	// was aborted (499, nginx's client-closed-request convention).
	ErrQueryCancelled = "query_cancelled"
	// ErrQueryTimeout: the ?timeout=/server-default deadline expired
	// mid-walk (504).
	ErrQueryTimeout = "query_timeout"
	// ErrInternal: a server-side fault the client cannot fix by
	// changing the request (500).
	ErrInternal = "internal_error"
	// ErrWrongShard: this server is one shard of a sharded deployment
	// and does not own the requested node's partition — or a query's
	// traversal crossed onto a partition it does not hold. Ask the
	// owning shard, or a gateway (421 Misdirected Request).
	ErrWrongShard = "wrong_shard"
	// ErrShardUnreachable: a gateway could not reach a downstream
	// shard (or the shard answered with a malformed response) while
	// federating a request (502).
	ErrShardUnreachable = "shard_unreachable"
)

// StatusClientClosedRequest is the non-standard 499 status reported
// when a cancelled client connection aborts a traversal. The client is
// gone, so the code is for logs and tests, not for the caller.
const StatusClientClosedRequest = 499

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// APIError is a failure travelling inside a handler before it is
// rendered: HTTP status code, stable machine-readable error code, and
// human-readable message. It is exported so the gateway tier
// (internal/gateway) renders the exact same envelope as the shards.
type APIError struct {
	// Status is the HTTP status the envelope is written with.
	Status int
	// Code is the stable machine-readable contract (the catalog above).
	Code string
	// Message is human-readable detail; it may change freely.
	Message string
}

// Error implements the error interface with the human-readable detail.
func (e *APIError) Error() string { return e.Message }

// Errf builds an *APIError with a printf-formatted message.
func Errf(status int, code, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// CtxError maps a context failure observed mid-walk to its structured
// API error; ok is false for every other error.
func CtxError(err error) (*APIError, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Errf(http.StatusGatewayTimeout, ErrQueryTimeout, "%v", err), true
	case errors.Is(err, context.Canceled):
		return Errf(StatusClientClosedRequest, ErrQueryCancelled, "%v", err), true
	}
	return nil, false
}

// WriteAPIError renders an APIError as the uniform envelope.
func WriteAPIError(w http.ResponseWriter, e *APIError) {
	WriteJSON(w, e.Status, errorEnvelope{Error: errorBody{Code: e.Code, Message: e.Message}})
}

// WriteErr is the one-shot form of WriteAPIError.
func WriteErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	WriteAPIError(w, Errf(status, code, format, args...))
}

// MarshalError renders an APIError as a compact JSON envelope — the
// per-item error form inside a batch response.
func MarshalError(e *APIError) json.RawMessage {
	b, _ := json.Marshal(errorEnvelope{Error: errorBody{Code: e.Code, Message: e.Message}})
	return b
}
