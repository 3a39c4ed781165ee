package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/simnet"
	"repro/internal/viz"
)

// Info configures a server instance: its /v1/healthz label plus the
// traversal caps applied to every query it serves.
type Info struct {
	// Protocol is the human-readable workload name (e.g. "mincost",
	// "bgp").
	Protocol string
	// MaxDepth / MaxNodes cap the traversal limits of every query
	// served over HTTP (0 = uncapped). Requests may ask for tighter
	// limits; absent or looser limits are clamped down to the cap and
	// the result is marked truncated where the cap bites.
	MaxDepth int
	MaxNodes int
	// Timeout is the server-default deadline for each query's
	// traversal, and the cap on the per-request ?timeout= override
	// (tighter requests win, looser ones are clamped). 0 means no
	// default deadline and no cap. A deadline that expires mid-walk
	// aborts the traversal with a structured query_timeout error;
	// a client disconnect aborts it with query_cancelled.
	Timeout time.Duration
}

// Server is the HTTP JSON face of a Publisher, versioned under /v1/.
// All handlers read published snapshots only; none ever touches live
// engine state, so any number of requests run concurrently with the
// simulation.
type Server struct {
	pub  *Publisher
	info Info
	mux  *http.ServeMux

	// provReads counts prov-read ops served (see provread.go).
	provReads atomic.Int64
}

// New builds the HTTP API over a publisher.
func New(pub *Publisher, info Info) *Server {
	s := &Server{pub: pub, info: info, mux: http.NewServeMux()}
	Route(s.mux, "GET", "/v1/healthz", s.handleHealthz)
	Route(s.mux, "GET", "/v1/nodes", s.handleNodes)
	Route(s.mux, "GET", "/v1/state/{node}", s.handleState)
	Route(s.mux, "POST", "/v1/query", s.handleQuery)
	Route(s.mux, "GET", "/v1/proof.dot", s.handleProofDOT)
	Route(s.mux, "GET", "/v1/version", s.handleVersion)
	Route(s.mux, "POST", "/v1/query/batch", s.handleQueryBatch)
	Route(s.mux, "GET", "/v1/shards", s.handleShards)
	Route(s.mux, "POST", "/v1/prov/read", s.handleProvRead)
	Route(s.mux, "GET", "/v1/history/first", s.handleHistoryFirst)
	NotFound(s.mux)
	return s
}

// Route mounts h for one method on pattern, and a structured JSON 405
// (with the Allow header) for every other method on the same pattern.
// The shard server and the gateway mount every endpoint through it.
func Route(mux *http.ServeMux, method, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(method+" "+pattern, h)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", method)
		WriteErr(w, http.StatusMethodNotAllowed, ErrMethodNotAllowed,
			"method %s not allowed on %s (allow %s)", r.Method, r.URL.Path, method)
	})
}

// NotFound answers every path no Route matched with a structured JSON
// 404, not the mux's plain-text default.
func NotFound(mux *http.ServeMux) {
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteErr(w, http.StatusNotFound, ErrUnknownEndpoint, "unknown endpoint %s", r.URL.Path)
	})
}

// MaxRequestBytes bounds every JSON request body. It leaves room for a
// full batch — MaxBatchQueries queries of 3 KiB each, or MaxProvReads
// reads of 512 bytes each, where real ones are about 100 bytes — so the
// count limits, not the byte limit, are what a well-formed batch runs
// into.
const MaxRequestBytes = 4 << 20

// DecodeJSON decodes a request body of at most MaxRequestBytes into v.
// A larger body is the structured 413 request_too_large; any other
// decode failure is a 400 invalid_request.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) *APIError {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return Errf(http.StatusRequestEntityTooLarge, ErrRequestTooLarge,
			"request body exceeds %d bytes", tooLarge.Limit)
	default:
		return Errf(http.StatusBadRequest, ErrInvalidRequest, "bad request body: %v", err)
	}
}

// ClampOptions applies the Info's traversal caps to a request's
// options: absent or looser request limits are clamped down to the
// caps, tighter ones win.
func (i Info) ClampOptions(o provquery.Options) provquery.Options {
	if i.MaxDepth > 0 && (o.MaxDepth == 0 || o.MaxDepth > i.MaxDepth) {
		o.MaxDepth = i.MaxDepth
	}
	if i.MaxNodes > 0 && (o.MaxNodes == 0 || o.MaxNodes > i.MaxNodes) {
		o.MaxNodes = i.MaxNodes
	}
	return o
}

// clampOpts applies the server's traversal caps to a request's options.
func (s *Server) clampOpts(o provquery.Options) provquery.Options {
	return s.info.ClampOptions(o)
}

// maxOptionValue bounds request-supplied traversal options. Values
// past it cannot describe a real proof in any scenario this system
// runs; they are configuration mistakes and are rejected up front
// rather than silently accepted.
const maxOptionValue = 1 << 20

// validateOptions rejects out-of-range traversal options at the API
// boundary: negative values (which the walk would silently treat as
// "unlimited") and absurdly large ones. The textual grammar rejects
// these at parse time; this guards the structured form.
func validateOptions(o provquery.Options) *APIError {
	for _, f := range []struct {
		name string
		v    int
	}{{"threshold", o.Threshold}, {"maxdepth", o.MaxDepth}, {"maxnodes", o.MaxNodes}} {
		if f.v < 0 {
			return Errf(http.StatusBadRequest, ErrInvalidOption,
				"%s must be >= 0, got %d", f.name, f.v)
		}
		if f.v > maxOptionValue {
			return Errf(http.StatusBadRequest, ErrInvalidOption,
				"%s %d exceeds the maximum %d", f.name, f.v, maxOptionValue)
		}
	}
	return nil
}

// RequestContext derives the traversal context for one request: the
// client's own context (so a disconnect cancels the walk) bounded by
// the ?timeout= deadline or the serverDefault, whichever is tighter.
// Shared by the shard server and the gateway so timeout semantics
// cannot drift between tiers.
func RequestContext(r *http.Request, serverDefault time.Duration) (context.Context, context.CancelFunc, *APIError) {
	d := serverDefault
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		td, err := time.ParseDuration(raw)
		if err != nil || td <= 0 {
			return nil, nil, Errf(http.StatusBadRequest, ErrInvalidOption,
				"bad timeout %q (want a positive Go duration like 500ms)", raw)
		}
		if d == 0 || td < d {
			d = td
		}
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// queryContext is RequestContext under this server's -timeout default.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc, *APIError) {
	return RequestContext(r, s.info.Timeout)
}

// Handler returns the root handler for http.Serve.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- JSON shapes -------------------------------------------------------

// TupleJSON is the wire form of a tuple: the relation name, each
// attribute rendered as its NDlog literal, and the full literal text.
type TupleJSON struct {
	Rel  string   `json:"rel"`
	Vals []string `json:"vals"`
	Text string   `json:"text"`
}

// JSONTuple renders one tuple as its wire form.
func JSONTuple(t rel.Tuple) TupleJSON {
	out := TupleJSON{Rel: t.Rel, Vals: make([]string, len(t.Vals)), Text: t.String()}
	for i, v := range t.Vals {
		out.Vals[i] = v.String()
	}
	return out
}

// ProofJSON is the wire form of a proof-tree vertex.
type ProofJSON struct {
	Tuple     *TupleJSON  `json:"tuple,omitempty"` // nil for unresolved vertices
	VID       string      `json:"vid"`
	Loc       string      `json:"loc"`
	Base      bool        `json:"base,omitempty"`
	Cycle     bool        `json:"cycle,omitempty"`
	Pruned    bool        `json:"pruned,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Derivs    []DerivJSON `json:"derivs,omitempty"`
}

// DerivJSON is one derivation step: the rule, where it executed, and
// the input tuples' sub-proofs.
type DerivJSON struct {
	Rule     string      `json:"rule"`
	Loc      string      `json:"loc"`
	RID      string      `json:"rid"`
	Children []ProofJSON `json:"children,omitempty"`
}

// JSONProof renders one proof-tree vertex (recursively) as its wire
// form.
func JSONProof(p *provquery.ProofNode) ProofJSON {
	out := ProofJSON{
		VID:       p.VID.Short(),
		Loc:       p.Loc,
		Base:      p.Base,
		Cycle:     p.Cycle,
		Pruned:    p.Pruned,
		Truncated: p.Truncated,
	}
	if p.Tuple.Rel != "" {
		t := JSONTuple(p.Tuple)
		out.Tuple = &t
	}
	for _, d := range p.Derivs {
		dj := DerivJSON{Rule: d.Rule, Loc: d.RLoc, RID: d.RID.Short()}
		for _, c := range d.Children {
			dj.Children = append(dj.Children, JSONProof(c))
		}
		out.Derivs = append(out.Derivs, dj)
	}
	return out
}

// WriteJSON writes v as the canonical two-space-indented JSON body
// every tier of the API serves, so shard and gateway bodies can be
// compared byte for byte.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// snapshotAt resolves the snapshot a request is pinned to: an explicit
// version selects a retained one; absent or 0 means current. A missing
// version is the structured snapshot_evicted 410 with the retained
// range.
func (s *Server) snapshotAt(version uint64) (*Snapshot, *APIError) {
	snap, ok := s.pub.At(version)
	if !ok {
		oldest, newest := s.pub.Versions()
		return nil, Errf(http.StatusGone, ErrSnapshotEvicted,
			"version %d not retained (oldest %d, newest %d)", version, oldest, newest)
	}
	return snap, nil
}

// VersionParam reads the optional ?version= pin of a GET request; 0
// means current.
func VersionParam(r *http.Request) (uint64, *APIError) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, Errf(http.StatusBadRequest, ErrInvalidRequest, "bad version %q", raw)
	}
	return v, nil
}

// ---- conditional GETs --------------------------------------------------

// requestETag is the strong validator of a snapshot-determined GET
// response. Snapshots are immutable and response bodies are a pure
// function of (resolved version, path, parameters), so the ETag never
// needs to see the body — conditional requests are answered before any
// traversal work. The version parameter is replaced by the resolved
// version, so pinned and current spellings of the same snapshot
// validate against the same tag. The /v1 prefix is stripped before
// hashing, so tags keep the values clients already hold.
func requestETag(snap *Snapshot, r *http.Request) string {
	q := r.URL.Query()
	q.Del("version")
	// The timeout bounds evaluation wall-clock, never the body: two
	// clients with different timeouts must revalidate each other.
	q.Del("timeout")
	h := fnv.New64a()
	_, _ = io.WriteString(h, strings.TrimPrefix(r.URL.Path, "/v1"))
	_, _ = io.WriteString(h, "?")
	_, _ = io.WriteString(h, q.Encode()) // Encode sorts keys: canonical
	return fmt.Sprintf(`"%d-%016x"`, snap.Version, h.Sum64())
}

// etagMatches compares If-None-Match candidates against the computed
// tag. The "*" form is deliberately not honored: it matches only when
// a current representation exists (RFC 9110), and condGET runs before
// node/tuple existence checks — answering 304 for a resource whose
// unconditional GET is a 404 would pin stale caches forever. Declining
// "*" merely costs the full body.
func etagMatches(ifNoneMatch, etag string) bool {
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		if strings.TrimSpace(cand) == etag {
			return true
		}
	}
	return false
}

// condGET resolves a GET request's pinned snapshot and runs the
// conditional-GET machinery: the response's ETag is always set, and a
// matching If-None-Match is answered 304 with no body (done=true, with
// every validation error already written).
func (s *Server) condGET(w http.ResponseWriter, r *http.Request) (*Snapshot, bool) {
	version, apiErr := VersionParam(r)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return nil, true
	}
	snap, apiErr := s.snapshotAt(version)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return nil, true
	}
	etag := requestETag(snap, r)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, true
	}
	return snap, false
}

// ---- endpoints ---------------------------------------------------------

type healthzJSON struct {
	OK       bool   `json:"ok"`
	Protocol string `json:"protocol"`
	Version  uint64 `json:"version"`
	Time     int64  `json:"virtualTimeUs"`
	Nodes    int    `json:"nodes"`
	Oldest   uint64 `json:"oldestVersion"`
	// Shard appears only on sharded servers, so single-process bodies
	// are unchanged.
	Shard *ShardJSON `json:"shard,omitempty"`
	// Store appears only when a durable snapshot store is attached
	// (-data), so storeless bodies are unchanged.
	Store *StoreHealthJSON `json:"store,omitempty"`
}

// StoreHealthJSON is the healthz view of the attached snapshot store:
// the oldest version still on disk and the newest one made durable.
type StoreHealthJSON struct {
	Oldest  uint64 `json:"oldestVersion"`
	Durable uint64 `json:"durableVersion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.pub.Current()
	oldest, _ := s.pub.Versions()
	out := healthzJSON{
		OK:       true,
		Protocol: s.info.Protocol,
		Version:  snap.Version,
		Time:     int64(snap.Time),
		Nodes:    len(snap.Nodes),
		Oldest:   oldest,
	}
	if !snap.Shard.Unsharded() {
		out.Shard = &ShardJSON{Index: snap.Shard.Index, Total: snap.Shard.Total}
	}
	if st := s.pub.Store(); st != nil {
		out.Store = &StoreHealthJSON{Oldest: st.OldestVersion(), Durable: st.DurableVersion()}
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleVersion reports the server binary's build metadata
// (debug.ReadBuildInfo): module path/version, Go toolchain, and build
// settings.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, buildinfo.Get())
}

// NodeJSON is one element of GET /v1/nodes.
type NodeJSON struct {
	Addr        string   `json:"addr"`
	Neighbors   []string `json:"neighbors"`
	Tuples      int      `json:"tuples"`
	ProvEntries int      `json:"provEntries"`
	ExecEntries int      `json:"execEntries"`
	SentMsgs    int      `json:"sentMsgs"`
	SentBytes   int      `json:"sentBytes"`
}

// NodesJSON is the GET /v1/nodes body.
type NodesJSON struct {
	Version uint64     `json:"version"`
	Time    int64      `json:"virtualTimeUs"`
	Nodes   []NodeJSON `json:"nodes"`
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	snap, done := s.condGET(w, r)
	if done {
		return
	}
	// Nodes is always a JSON array, never null.
	out := NodesJSON{Version: snap.Version, Time: int64(snap.Time), Nodes: []NodeJSON{}}
	for i, addr := range snap.Nodes {
		info := snap.states[i].info
		out.Nodes = append(out.Nodes, NodeJSON{
			Addr:        addr,
			Neighbors:   info.Neighbors,
			Tuples:      info.Tuples,
			ProvEntries: info.Prov.ProvEntries,
			ExecEntries: info.Prov.ExecEntries,
			SentMsgs:    info.SentMsgs,
			SentBytes:   info.SentBytes,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// StateJSON is the GET /v1/state/{node} body.
type StateJSON struct {
	Version uint64                 `json:"version"`
	Time    int64                  `json:"virtualTimeUs"`
	Node    string                 `json:"node"`
	Tables  map[string][]TupleJSON `json:"tables"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	snap, done := s.condGET(w, r)
	if done {
		return
	}
	addr := r.PathValue("node")
	tables, ok := snap.NodeTables(addr)
	if !ok {
		if apiErr := snap.misdirected(addr); apiErr != nil {
			WriteAPIError(w, apiErr)
			return
		}
		WriteErr(w, http.StatusNotFound, ErrUnknownNode, "unknown node %q", addr)
		return
	}
	out := StateJSON{Version: snap.Version, Time: int64(snap.Time), Node: addr}

	// ?t=<virtual time in us> time-travels through the logstore history
	// instead of reading the snapshot's own instant.
	if raw := r.URL.Query().Get("t"); raw != "" {
		us, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, ErrInvalidRequest, "bad virtual time %q", raw)
			return
		}
		view := snap.History.At(simnet.Time(us))
		sn, ok := view[addr]
		if !ok {
			WriteErr(w, http.StatusNotFound, ErrUnknownNode,
				"no capture of %q at or before t=%dus in the retained history", addr, us)
			return
		}
		tables = sn.Tables
		out.Time = int64(sn.Time)
	}

	relFilter := r.URL.Query().Get("rel")
	out.Tables = map[string][]TupleJSON{}
	for name, ts := range tables {
		if relFilter != "" && name != relFilter {
			continue
		}
		rows := make([]TupleJSON, ts.Len())
		for i, t := range ts.Tuples() {
			rows[i] = JSONTuple(t)
		}
		out.Tables[name] = rows
	}
	WriteJSON(w, http.StatusOK, out)
}

// QueryRequest is the /query body (and one element of a batch's
// queries array). Either q (the textual query language) or type+tuple
// (structured form) must be set. Inside a batch, version must be unset
// — the batch pins one snapshot for every query it carries.
type QueryRequest struct {
	Q       string `json:"q,omitempty"`
	Type    string `json:"type,omitempty"`
	Tuple   string `json:"tuple,omitempty"`
	At      string `json:"at,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Options struct {
		Threshold  int  `json:"threshold,omitempty"`
		Sequential bool `json:"sequential,omitempty"`
		MaxDepth   int  `json:"maxdepth,omitempty"`
		MaxNodes   int  `json:"maxnodes,omitempty"`
	} `json:"options"`
}

// QueryStatsJSON is the modeled-traffic object of a query response.
type QueryStatsJSON struct {
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
}

// QueryResponse is the /query body. It contains only version-determined
// fields: two requests pinned to the same snapshot version always get
// byte-identical bodies, whether served from the sub-proof cache or by
// a fresh traversal — and a batch result element renders the identical
// JSON for the identical query. Cache observability travels in the
// X-Cache, X-Cache-Hits, and X-Cache-Misses response headers instead.
type QueryResponse struct {
	Version   uint64         `json:"version"`
	Time      int64          `json:"virtualTimeUs"`
	Type      string         `json:"type"`
	Pruned    bool           `json:"pruned,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	Proof     *ProofJSON     `json:"proof,omitempty"`
	Text      string         `json:"text,omitempty"`
	Bases     []TupleJSON    `json:"bases,omitempty"`
	Nodes     []string       `json:"nodes,omitempty"`
	Count     *int           `json:"count,omitempty"`
	Stats     QueryStatsJSON `json:"stats"`
}

// setCacheHeaders reports a CachedQuery outcome on the response.
func setCacheHeaders(w http.ResponseWriter, snap *Snapshot, hit bool) {
	verdict := "MISS"
	if hit {
		verdict = "HIT"
	}
	hits, misses := snap.CacheCounters()
	w.Header().Set("X-Cache", verdict)
	w.Header().Set("X-Cache-Hits", strconv.FormatInt(hits, 10))
	w.Header().Set("X-Cache-Misses", strconv.FormatInt(misses, 10))
}

// ResolveTupleAt parses a tuple literal and resolves the node to query
// at: the explicit at argument, else the tuple's location attribute.
func ResolveTupleAt(lit, at string) (rel.Tuple, string, error) {
	t, err := provquery.ParseTupleLiteral(lit)
	if err != nil {
		return rel.Tuple{}, "", err
	}
	if at == "" {
		loc, ok := t.LocCol0()
		if !ok {
			return rel.Tuple{}, "", fmt.Errorf("tuple has no location attribute; pass an explicit node")
		}
		at = loc
	}
	return t, at, nil
}

// ResolveQueryRequest turns one query request body into walk inputs:
// both
// request forms reduce to (type, tuple, at, opts) before any
// evaluation, so every malformed query is a 400 and only missing
// provenance is a 404.
func ResolveQueryRequest(req *QueryRequest) (typ provquery.QueryType, t rel.Tuple, at string, opts provquery.Options, apiErr *APIError) {
	switch {
	case req.Q != "":
		parsed, err := provquery.ParseQuery(req.Q)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, ErrInvalidQuery, "%v", err)
		}
		typ, t, at, opts = parsed.Type, parsed.Tuple, parsed.At, parsed.Opts
	case req.Type != "" && req.Tuple != "":
		var err error
		typ, err = provquery.ParseQueryType(req.Type)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, ErrInvalidQuery, "%v", err)
		}
		t, at, err = ResolveTupleAt(req.Tuple, req.At)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, ErrInvalidQuery, "%v", err)
		}
		opts = provquery.Options{
			Threshold:  req.Options.Threshold,
			Sequential: req.Options.Sequential,
			MaxDepth:   req.Options.MaxDepth,
			MaxNodes:   req.Options.MaxNodes,
		}
	default:
		return 0, rel.Tuple{}, "", opts,
			Errf(http.StatusBadRequest, ErrInvalidRequest, `need "q" or "type"+"tuple"`)
	}
	if apiErr := validateOptions(opts); apiErr != nil {
		return 0, rel.Tuple{}, "", opts, apiErr
	}
	return typ, t, at, opts, nil
}

// QueryError maps a traversal failure to its stable API error: the
// one mapping shared by every query-evaluating endpoint (and by the
// gateway), so the same defect never earns different codes on
// different routes.
func QueryError(err error) *APIError {
	if ce, ok := CtxError(err); ok {
		return ce
	}
	if errors.Is(err, provquery.ErrUnknownNode) {
		return Errf(http.StatusNotFound, ErrUnknownNode, "%v", err)
	}
	if errors.Is(err, provquery.ErrNotOwned) {
		return Errf(http.StatusMisdirectedRequest, ErrWrongShard,
			"%v (query a gateway, or the owning shard)", err)
	}
	// Unknown tuples surface here; the snapshot simply has no
	// provenance for them.
	return Errf(http.StatusNotFound, ErrNoProvenance, "%v", err)
}

// RenderQueryResponse renders a finished traversal as the
// version-determined /v1/query response document. The shard server
// and the gateway share this renderer, which is what makes federated
// answers byte-identical to single-process ones.
func RenderQueryResponse(version uint64, timeUs int64, res *provquery.Result) *QueryResponse {
	out := &QueryResponse{
		Version:   version,
		Time:      timeUs,
		Type:      res.Type.String(),
		Pruned:    res.Pruned,
		Truncated: res.Truncated,
		Stats:     QueryStatsJSON{Messages: res.Stats.Messages, Bytes: res.Stats.Bytes},
	}
	switch res.Type {
	case provquery.Lineage:
		pj := JSONProof(res.Root)
		out.Proof = &pj
		out.Text = viz.ProofTree(res.Root, viz.ProofTreeOptions{})
	case provquery.BaseTuples:
		out.Bases = []TupleJSON{}
		for _, b := range res.Bases {
			tj := JSONTuple(b.Tuple)
			out.Bases = append(out.Bases, tj)
		}
	case provquery.Nodes:
		out.Nodes = res.Nodes
	case provquery.DerivCount:
		out.Count = &res.Count
	}
	return out
}

// evalQuery runs one resolved query against snap (through the
// per-version sub-proof cache) and renders the version-determined
// response.
func (s *Server) evalQuery(ctx context.Context, snap *Snapshot, typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (*QueryResponse, bool, *APIError) {
	res, hit, err := snap.CachedQueryContext(ctx, typ, at, t, s.clampOpts(opts))
	if err != nil {
		return nil, false, QueryError(err)
	}
	return RenderQueryResponse(snap.Version, int64(snap.Time), res), hit, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if apiErr := DecodeJSON(w, r, &req); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	snap, apiErr := s.snapshotAt(req.Version)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	typ, t, at, opts, apiErr := ResolveQueryRequest(&req)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	ctx, cancel, apiErr := s.queryContext(r)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	defer cancel()
	out, hit, apiErr := s.evalQuery(ctx, snap, typ, at, t, opts)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	setCacheHeaders(w, snap, hit)
	WriteJSON(w, http.StatusOK, out)
}

// ---- POST /v1/query/batch ----------------------------------------------

// batchRequest evaluates many queries against one pinned snapshot. All
// queries share the snapshot's sub-proof cache, so repeated or
// overlapping queries inside one batch are answered without
// re-traversal — and the whole batch costs one HTTP round trip.
type batchRequest struct {
	Version uint64         `json:"version,omitempty"`
	Queries []QueryRequest `json:"queries"`
}

// batchResponse carries one result element per query, in order. Each
// element is either the exact QueryResponse document the equivalent
// individual POST /v1/query would have returned (identical JSON modulo
// indentation depth) or an error envelope in the uniform shape.
type batchResponse struct {
	Version uint64            `json:"version"`
	Time    int64             `json:"virtualTimeUs"`
	Results []json.RawMessage `json:"results"`
}

// MaxBatchQueries bounds one batch request.
const MaxBatchQueries = 1024

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if apiErr := DecodeJSON(w, r, &req); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	if len(req.Queries) == 0 {
		WriteErr(w, http.StatusBadRequest, ErrInvalidRequest, "empty batch: need at least one query")
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		WriteErr(w, http.StatusBadRequest, ErrInvalidRequest,
			"batch of %d queries exceeds the maximum %d", len(req.Queries), MaxBatchQueries)
		return
	}
	for i := range req.Queries {
		if req.Queries[i].Version != 0 {
			WriteErr(w, http.StatusBadRequest, ErrInvalidRequest,
				"queries[%d] sets version; the batch-level version pins the snapshot for every query", i)
			return
		}
	}
	snap, apiErr := s.snapshotAt(req.Version)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	ctx, cancel, apiErr := s.queryContext(r)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	defer cancel()

	results := make([]json.RawMessage, 0, len(req.Queries))
	hits := 0
	// local is the batch's own result overlay. The snapshot's query
	// cache is bounded (it declines new keys once full), so the
	// batch's documented guarantee — repeated queries inside one batch
	// never re-traverse — must not depend on it having room.
	local := map[queryCacheKey]json.RawMessage{}
	for i := range req.Queries {
		// A dead client or an expired deadline aborts the whole batch
		// with a structured error — never a partial results array.
		if err := ctx.Err(); err != nil {
			ce, _ := CtxError(err)
			WriteAPIError(w, ce)
			return
		}
		typ, t, at, opts, itemErr := ResolveQueryRequest(&req.Queries[i])
		if itemErr == nil {
			key := queryCacheKey{at: at, vid: t.VID(), typ: typ, opts: s.clampOpts(opts)}
			if cached, ok := local[key]; ok {
				hits++
				results = append(results, cached)
				continue
			}
			out, hit, evalErr := s.evalQuery(ctx, snap, typ, at, t, opts)
			if evalErr == nil {
				if hit {
					hits++
				}
				b, err := json.Marshal(out)
				if err != nil {
					WriteErr(w, http.StatusInternalServerError, ErrInternal, "encode: %v", err)
					return
				}
				local[key] = b
				results = append(results, b)
				continue
			}
			if evalErr.Code == ErrQueryCancelled || evalErr.Code == ErrQueryTimeout {
				WriteAPIError(w, evalErr)
				return
			}
			itemErr = evalErr
		}
		results = append(results, MarshalError(itemErr))
	}

	hitsTotal, missesTotal := snap.CacheCounters()
	w.Header().Set("X-Batch-Cache-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Cache-Hits", strconv.FormatInt(hitsTotal, 10))
	w.Header().Set("X-Cache-Misses", strconv.FormatInt(missesTotal, 10))
	WriteJSON(w, http.StatusOK, batchResponse{
		Version: snap.Version,
		Time:    int64(snap.Time),
		Results: results,
	})
}

// handleProofDOT renders the lineage of ?tuple= (optionally ?at=,
// ?version=) as a Graphviz DOT document.
func (s *Server) handleProofDOT(w http.ResponseWriter, r *http.Request) {
	snap, done := s.condGET(w, r)
	if done {
		return
	}
	lit := r.URL.Query().Get("tuple")
	if lit == "" {
		WriteErr(w, http.StatusBadRequest, ErrInvalidRequest, "missing ?tuple= literal")
		return
	}
	t, at, err := ResolveTupleAt(lit, r.URL.Query().Get("at"))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, ErrInvalidQuery, "%v", err)
		return
	}
	ctx, cancel, apiErr := s.queryContext(r)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	defer cancel()
	res, hit, err := snap.CachedQueryContext(ctx, provquery.Lineage, at, t, s.clampOpts(provquery.Options{}))
	if err != nil {
		WriteAPIError(w, QueryError(err))
		return
	}
	setCacheHeaders(w, snap, hit)
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(snap.Version, 10))
	fmt.Fprint(w, viz.ProofDOT(res.Root))
}
