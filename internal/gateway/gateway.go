// Package gateway federates provenance queries over a sharded
// NetTrails deployment. The serving tier may split the network's
// partitions across N nettrailsd shards (nettrailsd -shard i/N), each
// publishing snapshots of only the nodes it owns; a Gateway presents
// the same /v1 query surface as a single daemon and answers it by
// running the one provgraph walk itself, fanning out batched,
// version-pinned partition reads (POST /v1/prov/read, via the
// repro/client SDK) to the shard owning each vertex's node.
// Cross-shard lineage traversal thus mirrors the paper's cross-node
// traversal, one tier up.
//
// Epoch agreement is by version pinning: all shards of a
// deterministic run mint the same dense snapshot-version sequence, so
// the gateway pins one version on every shard per request (an
// explicit ?version=, or the minimum of the shards' current versions)
// and surfaces snapshot_evicted when any shard no longer retains it.
// Cancellation propagates: the gateway request's context threads
// through the SDK into every downstream read, so a client disconnect
// aborts in-flight shard requests mid-walk.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/buildinfo"
	"repro/internal/provgraph"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/viz"
)

// Gateway federates the /v1 query surface over one sharded
// deployment. It is safe for concurrent use.
type Gateway struct {
	info     server.Info
	total    int
	allNodes []string
	table    map[string]int // node -> shard index

	clients []*client.Client // one per shard index

	cache *gwCache
	times sync.Map // version -> simnet.Time (immutable once learned)
	mux   *http.ServeMux
}

// Option configures a Gateway at construction.
type Option func(*Gateway)

// WithInfo sets the gateway's protocol label, traversal caps, and
// default query timeout (same semantics as the shard server's Info).
func WithInfo(info server.Info) Option { return func(g *Gateway) { g.info = info } }

// New discovers a sharded deployment from the shards' base URLs and
// builds its gateway. Every shard is contacted for GET /v1/shards, and
// the SDK's discovery checks that the answers describe one coherent
// deployment (each index held exactly once, identical node lists).
func New(ctx context.Context, urls []string, opts ...Option) (*Gateway, error) {
	g := &Gateway{cache: newGwCache()}
	for _, o := range opts {
		o(g)
	}
	set, err := client.DiscoverShards(ctx, urls)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	g.total = set.Len()
	g.allNodes = set.Nodes()
	g.clients = make([]*client.Client, g.total)
	g.table = make(map[string]int, len(g.allNodes))
	for i := range g.clients {
		g.clients[i] = set.Shard(i)
	}
	for i, addr := range g.allNodes {
		g.table[addr] = server.ShardOf(i, g.total)
	}

	g.mux = http.NewServeMux()
	server.Route(g.mux, "GET", "/v1/healthz", g.handleHealthz)
	server.Route(g.mux, "GET", "/v1/version", g.handleVersion)
	server.Route(g.mux, "GET", "/v1/shards", g.handleShards)
	server.Route(g.mux, "GET", "/v1/nodes", g.handleNodes)
	server.Route(g.mux, "GET", "/v1/state/{node}", g.handleState)
	server.Route(g.mux, "GET", "/v1/history/first", g.handleHistoryFirst)
	server.Route(g.mux, "POST", "/v1/query", g.handleQuery)
	server.Route(g.mux, "POST", "/v1/query/batch", g.handleQueryBatch)
	server.Route(g.mux, "GET", "/v1/proof.dot", g.handleProofDOT)
	server.NotFound(g.mux)
	return g, nil
}

// Handler returns the root handler for http.Serve.
func (g *Gateway) Handler() http.Handler { return g.mux }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Nodes returns every node address of the federated network, sorted.
func (g *Gateway) Nodes() []string { return g.allNodes }

// Shards returns how many shards the gateway federates.
func (g *Gateway) Shards() int { return g.total }

// ---- downstream error mapping ------------------------------------------

// downstreamError maps a failed shard call to the gateway's own API
// error: structured shard answers pass through with their code and
// status, context failures become the standard cancellation errors,
// and everything else is a 502 shard_unreachable.
func downstreamError(err error) *server.APIError {
	var ae *client.APIError
	if errors.As(err, &ae) {
		status := ae.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		return server.Errf(status, ae.Code, "shard: %s", ae.Message)
	}
	if ce, ok := server.CtxError(err); ok {
		return ce
	}
	return server.Errf(http.StatusBadGateway, server.ErrShardUnreachable, "%v", err)
}

// ---- version pinning ----------------------------------------------------

// forEachShard runs f for every shard concurrently — downstream calls
// are independent, and a serial sweep would pay one round trip of
// latency per shard — then returns the first error by shard order.
func (g *Gateway) forEachShard(f func(i int, c *client.Client) error) error {
	errs := make([]error, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			errs[i] = f(i, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resolveVersion picks the snapshot version a request pins on every
// shard: an explicit version is used as-is; version 0 resolves to the
// minimum of the shards' current versions — the newest epoch every
// shard has reached. hops counts the downstream requests spent.
func (g *Gateway) resolveVersion(ctx context.Context, version uint64) (v uint64, hops int, apiErr *server.APIError) {
	if version > 0 {
		return version, 0, nil
	}
	versions := make([]uint64, len(g.clients))
	err := g.forEachShard(func(i int, c *client.Client) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		versions[i] = h.Version
		return nil
	})
	hops = len(g.clients)
	if err != nil {
		return 0, hops, downstreamError(err)
	}
	for _, cur := range versions {
		if v == 0 || cur < v {
			v = cur
		}
	}
	return v, hops, nil
}

// timeOf resolves the virtual time of a pinned version (identical on
// every shard of a deterministic run), caching it forever — versions
// are immutable. hops counts downstream requests spent on a miss.
func (g *Gateway) timeOf(ctx context.Context, version uint64) (simnet.Time, int, *server.APIError) {
	if t, ok := g.times.Load(version); ok {
		return t.(simnet.Time), 0, nil
	}
	sh, err := g.clients[0].Shards(ctx, client.At(version))
	if err != nil {
		return 0, 1, downstreamError(err)
	}
	t := simnet.Time(sh.TimeUs)
	g.times.Store(version, t)
	return t, 1, nil
}

// ---- query evaluation ---------------------------------------------------

// evalResult is one federated traversal's outcome.
type evalResult struct {
	res  *provquery.Result
	time simnet.Time
	hit  bool
	hops int
}

// eval answers one query against the pinned version, through the
// gateway's per-version result cache.
func (g *Gateway) eval(ctx context.Context, version uint64, typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (evalResult, *server.APIError) {
	opts = g.info.ClampOptions(opts)
	timeUs, hops, apiErr := g.timeOf(ctx, version)
	if apiErr != nil {
		return evalResult{}, apiErr
	}
	key := gwKey{version: version, at: at, vid: t.VID(), typ: typ, opts: opts}
	if res, ok := g.cache.get(key); ok {
		return evalResult{res: res, time: timeUs, hit: true, hops: hops}, nil
	}
	res, walkHops, apiErr := g.runWalk(ctx, version, typ, at, t, opts)
	hops += walkHops
	if apiErr != nil {
		return evalResult{hops: hops}, apiErr
	}
	g.cache.put(key, res)
	return evalResult{res: res, time: timeUs, hops: hops}, nil
}

// runWalk executes the shared provgraph walk over the federated
// source. The result is byte-for-byte the one a single-process
// snapshot traversal of the same state produces: same walk, same
// modeled costs, only the partition reads travel.
func (g *Gateway) runWalk(ctx context.Context, version uint64, typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (*provquery.Result, int, *server.APIError) {
	if _, ok := g.table[at]; !ok {
		return nil, 0, server.Errf(http.StatusNotFound, server.ErrUnknownNode,
			"provquery: unknown node %s", at)
	}
	src := newFedSource(g, ctx, version)
	vid := t.VID()
	start := src.vertex(at, vid)
	if src.err != nil {
		return nil, src.hops, downstreamError(src.err)
	}
	if !start.derivsOK {
		return nil, src.hops, server.Errf(http.StatusNotFound, server.ErrNoProvenance,
			"provquery: tuple %s has no provenance at %s", t, at)
	}

	w := provgraph.NewWalkContext(ctx, src, typ, opts)
	var out *provgraph.SubResult
	w.ResolveTuple(at, vid, nil, func(r provgraph.SubResult) { out = &r })
	for out == nil && src.err == nil && w.Err() == nil {
		if len(src.pending) == 0 {
			return nil, src.hops, server.Errf(http.StatusInternalServerError, server.ErrInternal,
				"gateway: walk stalled with no pending expansions")
		}
		src.flush(w)
	}
	if err := w.Err(); err != nil {
		return nil, src.hops, server.QueryError(
			fmt.Errorf("provquery: query for %s aborted after %d vertices: %w", t, w.Resolved(), err))
	}
	if src.err != nil {
		return nil, src.hops, downstreamError(src.err)
	}
	if out == nil {
		return nil, src.hops, server.Errf(http.StatusInternalServerError, server.ErrInternal,
			"gateway: walk did not complete")
	}
	res := provgraph.NewResult(typ, *out)
	res.Stats = provquery.Stats{Messages: src.msgs, Bytes: src.bytes}
	return res, src.hops, nil
}

// ---- per-version result cache ------------------------------------------

// gwKey identifies one federated query result: pinned version,
// starting node, tuple VID, query type, and the full (clamped) option
// set — the same key shape the shard server memoizes under.
type gwKey struct {
	version uint64
	at      string
	vid     rel.ID
	typ     provquery.QueryType
	opts    provquery.Options
}

// gwCache memoizes whole federated results. Entries are immutable per
// pinned version, so there is no invalidation: when the cache fills,
// entries of versions older than the incoming one are dropped first,
// then further new keys are declined.
type gwCache struct {
	mu     sync.Mutex
	m      map[gwKey]*provquery.Result
	hits   atomic.Int64
	misses atomic.Int64
}

// maxGwCacheEntries bounds the gateway's memoized results.
const maxGwCacheEntries = 4096

func newGwCache() *gwCache { return &gwCache{m: map[gwKey]*provquery.Result{}} }

func (c *gwCache) get(key gwKey) (*provquery.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

func (c *gwCache) put(key gwKey, r *provquery.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= maxGwCacheEntries {
		for k := range c.m {
			if k.version < key.version {
				delete(c.m, k)
			}
		}
		if len(c.m) >= maxGwCacheEntries {
			if _, ok := c.m[key]; !ok {
				return
			}
		}
	}
	c.m[key] = r
}

// counters returns the cumulative hit/miss counts.
func (c *gwCache) counters() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// ---- HTTP handlers ------------------------------------------------------

func setHops(w http.ResponseWriter, hops int) {
	w.Header().Set("X-Shard-Hops", strconv.Itoa(hops))
}

func (g *Gateway) setCacheHeaders(w http.ResponseWriter, hit bool) {
	verdict := "MISS"
	if hit {
		verdict = "HIT"
	}
	hits, misses := g.cache.counters()
	w.Header().Set("X-Cache", verdict)
	w.Header().Set("X-Cache-Hits", strconv.FormatInt(hits, 10))
	w.Header().Set("X-Cache-Misses", strconv.FormatInt(misses, 10))
}

type gwHealthzJSON struct {
	OK       bool   `json:"ok"`
	Gateway  bool   `json:"gateway"`
	Protocol string `json:"protocol"`
	Version  uint64 `json:"version"`
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	Oldest   uint64 `json:"oldestVersion"`
}

// handleHealthz aggregates shard health: version is the newest epoch
// every shard has reached, oldestVersion the oldest every shard still
// retains (the pinnable range across the whole deployment).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := gwHealthzJSON{OK: true, Gateway: true, Protocol: g.info.Protocol,
		Nodes: len(g.allNodes), Shards: g.total}
	versions := make([]uint64, len(g.clients))
	oldests := make([]uint64, len(g.clients))
	err := g.forEachShard(func(i int, c *client.Client) error {
		h, err := c.Health(r.Context())
		if err != nil {
			return err
		}
		versions[i], oldests[i] = h.Version, h.Oldest
		return nil
	})
	setHops(w, len(g.clients))
	if err != nil {
		server.WriteAPIError(w, downstreamError(err))
		return
	}
	for i := range versions {
		if out.Version == 0 || versions[i] < out.Version {
			out.Version = versions[i]
		}
		if oldests[i] > out.Oldest {
			out.Oldest = oldests[i]
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleVersion reports the gateway binary's build metadata.
func (g *Gateway) handleVersion(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, buildinfo.Get())
}

type gwShardJSON struct {
	Index int      `json:"index"`
	Nodes []string `json:"nodes"`
}

type gwShardsJSON struct {
	Gateway  bool          `json:"gateway"`
	Total    int           `json:"total"`
	Shards   []gwShardJSON `json:"shards"`
	AllNodes []string      `json:"allNodes"`
}

// handleShards describes the federated routing table.
func (g *Gateway) handleShards(w http.ResponseWriter, r *http.Request) {
	out := gwShardsJSON{Gateway: true, Total: g.total, AllNodes: g.allNodes}
	shards := make([]gwShardJSON, g.total)
	for i := range shards {
		shards[i].Index = i
		shards[i].Nodes = []string{}
	}
	for i, addr := range g.allNodes {
		s := server.ShardOf(i, g.total)
		shards[s].Nodes = append(shards[s].Nodes, addr)
	}
	out.Shards = shards
	server.WriteJSON(w, http.StatusOK, out)
}

// handleNodes merges every shard's owned-node summaries at one pinned
// version into the same document a single-process daemon serves.
func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	version, apiErr := server.VersionParam(r)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	v, hops, apiErr := g.resolveVersion(r.Context(), version)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	perShard := make([]*client.Nodes, len(g.clients))
	err := g.forEachShard(func(i int, c *client.Client) error {
		ns, err := c.Nodes(r.Context(), client.At(v))
		if err != nil {
			return err
		}
		perShard[i] = ns
		return nil
	})
	hops += len(g.clients)
	setHops(w, hops)
	if err != nil {
		server.WriteAPIError(w, downstreamError(err))
		return
	}
	byAddr := map[string]server.NodeJSON{}
	var timeUs int64
	for _, ns := range perShard {
		timeUs = ns.TimeUs
		for _, n := range ns.Nodes {
			byAddr[n.Addr] = server.NodeJSON{
				Addr:        n.Addr,
				Neighbors:   n.Neighbors,
				Tuples:      n.Tuples,
				ProvEntries: n.ProvEntries,
				ExecEntries: n.ExecEntries,
				SentMsgs:    n.SentMsgs,
				SentBytes:   n.SentBytes,
			}
		}
	}
	out := server.NodesJSON{Version: v, Time: timeUs, Nodes: []server.NodeJSON{}}
	for _, addr := range g.allNodes {
		if n, ok := byAddr[addr]; ok {
			out.Nodes = append(out.Nodes, n)
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleState routes a node-state read to the shard owning the node
// and re-renders its answer unchanged.
func (g *Gateway) handleState(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("node")
	shard, ok := g.table[addr]
	if !ok {
		server.WriteErr(w, http.StatusNotFound, server.ErrUnknownNode, "unknown node %q", addr)
		return
	}
	version, apiErr := server.VersionParam(r)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	v, hops, apiErr := g.resolveVersion(r.Context(), version)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	opts := []client.CallOption{client.At(v)}
	if rel := r.URL.Query().Get("rel"); rel != "" {
		opts = append(opts, client.Rel(rel))
	}
	if raw := r.URL.Query().Get("t"); raw != "" {
		us, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest, "bad virtual time %q", raw)
			return
		}
		opts = append(opts, client.AtTime(us))
	}
	st, err := g.clients[shard].State(r.Context(), addr, opts...)
	hops++
	if err != nil {
		setHops(w, hops)
		server.WriteAPIError(w, downstreamError(err))
		return
	}
	out := server.StateJSON{Version: st.Version, Time: st.TimeUs, Node: st.Node,
		Tables: map[string][]server.TupleJSON{}}
	for name, ts := range st.Tables {
		rows := make([]server.TupleJSON, len(ts))
		for i, t := range ts {
			rows[i] = server.TupleJSON{Rel: t.Rel, Vals: t.Vals, Text: t.Text}
		}
		out.Tables[name] = rows
	}
	setHops(w, hops)
	server.WriteJSON(w, http.StatusOK, out)
}

// handleHistoryFirst routes a deep-history first-version probe to the
// shard owning the tuple's node and re-renders its answer unchanged —
// every shard's snapshot store mints the same dense version sequence,
// so the owning shard's answer is the deployment's answer.
func (g *Gateway) handleHistoryFirst(w http.ResponseWriter, r *http.Request) {
	lit := r.URL.Query().Get("tuple")
	if lit == "" {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest, "missing ?tuple= literal")
		return
	}
	_, at, err := server.ResolveTupleAt(lit, r.URL.Query().Get("at"))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidQuery, "%v", err)
		return
	}
	shard, ok := g.table[at]
	if !ok {
		server.WriteErr(w, http.StatusNotFound, server.ErrUnknownNode, "unknown node %q", at)
		return
	}
	hf, err := g.clients[shard].HistoryFirst(r.Context(), lit, at)
	setHops(w, 1)
	if err != nil {
		server.WriteAPIError(w, downstreamError(err))
		return
	}
	server.WriteJSON(w, http.StatusOK, server.HistoryFirstJSON{
		Tuple:         server.TupleJSON{Rel: hf.Tuple.Rel, Vals: hf.Tuple.Vals, Text: hf.Tuple.Text},
		Node:          hf.Node,
		FirstVersion:  hf.FirstVersion,
		TimeUs:        hf.TimeUs,
		OldestVersion: hf.Oldest,
	})
}

// handleQuery is POST /v1/query: the single-daemon request surface,
// answered by federated traversal.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if apiErr := server.DecodeJSON(w, r, &req); apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	typ, t, at, opts, apiErr := server.ResolveQueryRequest(&req)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	ctx, cancel, apiErr := server.RequestContext(r, g.info.Timeout)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	defer cancel()
	v, hops, apiErr := g.resolveVersion(ctx, req.Version)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	ev, apiErr := g.eval(ctx, v, typ, at, t, opts)
	if apiErr != nil {
		setHops(w, hops+ev.hops)
		server.WriteAPIError(w, apiErr)
		return
	}
	g.setCacheHeaders(w, ev.hit)
	setHops(w, hops+ev.hops)
	server.WriteJSON(w, http.StatusOK, server.RenderQueryResponse(v, int64(ev.time), ev.res))
}

// gwBatchRequest mirrors the shard server's batch body.
type gwBatchRequest struct {
	Version uint64                `json:"version,omitempty"`
	Queries []server.QueryRequest `json:"queries"`
}

type gwBatchResponse struct {
	Version uint64            `json:"version"`
	Time    int64             `json:"virtualTimeUs"`
	Results []json.RawMessage `json:"results"`
}

// handleQueryBatch is POST /v1/query/batch with the shard server's
// exact semantics: one pinned version for every element, per-element
// errors in place, whole-batch failure on cancellation or timeout.
func (g *Gateway) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req gwBatchRequest
	if apiErr := server.DecodeJSON(w, r, &req); apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	if len(req.Queries) == 0 {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest, "empty batch: need at least one query")
		return
	}
	if len(req.Queries) > server.MaxBatchQueries {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest,
			"batch of %d queries exceeds the maximum %d", len(req.Queries), server.MaxBatchQueries)
		return
	}
	for i := range req.Queries {
		if req.Queries[i].Version != 0 {
			server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest,
				"queries[%d] sets version; the batch-level version pins the snapshot for every query", i)
			return
		}
	}
	ctx, cancel, apiErr := server.RequestContext(r, g.info.Timeout)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	defer cancel()
	v, hops, apiErr := g.resolveVersion(ctx, req.Version)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	timeUs, tHops, apiErr := g.timeOf(ctx, v)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	hops += tHops

	results := make([]json.RawMessage, 0, len(req.Queries))
	hits := 0
	local := map[gwKey]json.RawMessage{}
	for i := range req.Queries {
		if err := ctx.Err(); err != nil {
			ce, _ := server.CtxError(err)
			server.WriteAPIError(w, ce)
			return
		}
		typ, t, at, opts, itemErr := server.ResolveQueryRequest(&req.Queries[i])
		if itemErr == nil {
			key := gwKey{version: v, at: at, vid: t.VID(), typ: typ, opts: g.info.ClampOptions(opts)}
			if cached, ok := local[key]; ok {
				hits++
				results = append(results, cached)
				continue
			}
			ev, evalErr := g.eval(ctx, v, typ, at, t, opts)
			hops += ev.hops
			if evalErr == nil {
				if ev.hit {
					hits++
				}
				b, err := json.Marshal(server.RenderQueryResponse(v, int64(timeUs), ev.res))
				if err != nil {
					server.WriteErr(w, http.StatusInternalServerError, server.ErrInternal, "encode: %v", err)
					return
				}
				local[key] = b
				results = append(results, b)
				continue
			}
			if evalErr.Code == server.ErrQueryCancelled || evalErr.Code == server.ErrQueryTimeout {
				server.WriteAPIError(w, evalErr)
				return
			}
			itemErr = evalErr
		}
		results = append(results, server.MarshalError(itemErr))
	}

	hitsTotal, missesTotal := g.cache.counters()
	w.Header().Set("X-Batch-Cache-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Cache-Hits", strconv.FormatInt(hitsTotal, 10))
	w.Header().Set("X-Cache-Misses", strconv.FormatInt(missesTotal, 10))
	setHops(w, hops)
	server.WriteJSON(w, http.StatusOK, gwBatchResponse{Version: v, Time: int64(timeUs), Results: results})
}

// handleProofDOT renders a federated lineage as Graphviz DOT, sharing
// the query result cache with /v1/query.
func (g *Gateway) handleProofDOT(w http.ResponseWriter, r *http.Request) {
	lit := r.URL.Query().Get("tuple")
	if lit == "" {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidRequest, "missing ?tuple= literal")
		return
	}
	t, at, err := server.ResolveTupleAt(lit, r.URL.Query().Get("at"))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, server.ErrInvalidQuery, "%v", err)
		return
	}
	version, apiErr := server.VersionParam(r)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	ctx, cancel, apiErr := server.RequestContext(r, g.info.Timeout)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	defer cancel()
	v, hops, apiErr := g.resolveVersion(ctx, version)
	if apiErr != nil {
		server.WriteAPIError(w, apiErr)
		return
	}
	ev, apiErr := g.eval(ctx, v, provquery.Lineage, at, t, provquery.Options{})
	if apiErr != nil {
		setHops(w, hops+ev.hops)
		server.WriteAPIError(w, apiErr)
		return
	}
	g.setCacheHeaders(w, ev.hit)
	setHops(w, hops+ev.hops)
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(v, 10))
	fmt.Fprint(w, viz.ProofDOT(ev.res.Root))
}
