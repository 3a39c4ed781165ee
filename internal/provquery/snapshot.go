package provquery

import (
	"context"
	"fmt"

	"repro/internal/provenance"
	"repro/internal/provgraph"
	"repro/internal/rel"
)

// This file is the snapshot-isolated face of the query engine. The live
// Client executes queries as messages inside the discrete-event
// simulation, which makes every query a simulation event: it advances
// virtual time and must run on the simulation thread. A SnapshotClient
// instead evaluates the same provgraph walk against frozen, immutable
// provenance views (provenance.View), so any number of goroutines can
// query concurrently — and lock-free — while the simulation keeps
// advancing. nettrailsd serves every HTTP query this way.

// PartitionView is the read-only surface of one node's provenance
// partition that snapshot query evaluation needs. Both the live
// *provenance.Store and the frozen *provenance.View implement it; the
// latter is what makes concurrent evaluation safe without locks.
type PartitionView interface {
	Derivations(vid rel.ID) ([]provenance.Entry, bool)
	Exec(rid rel.ID) (provenance.ExecEntry, bool)
	TupleOf(vid rel.ID) (rel.Tuple, bool)
}

var (
	_ PartitionView = (*provenance.Store)(nil)
	_ PartitionView = (*provenance.View)(nil)
)

// ViewResolver resolves node addresses to partition views. It is the
// pluggable lookup behind SnapshotClient: the snapshot publisher hands
// its own (O(1), allocation-free) resolver straight to the client
// instead of materializing a map of views on every publish.
// Implementations must be immutable once a client is built over them.
type ViewResolver interface {
	// PartitionView returns the view of addr's partition; ok is false
	// when this resolver does not hold it.
	PartitionView(addr string) (PartitionView, bool)
	// KnownNode reports whether addr is a node of the wider network even
	// though its partition may not be held here (a sharded deployment).
	// Resolvers that hold the whole network return false: an unresolved
	// address is then simply unknown.
	KnownNode(addr string) bool
}

// SnapshotClient answers provenance queries against a fixed resolver of
// per-node partition views. It is immutable after construction; a
// single SnapshotClient may serve many goroutines concurrently when
// its views are immutable (e.g. provenance.View). Each Query builds its
// own walk state, so no state is shared between concurrent queries.
type SnapshotClient struct {
	src ViewResolver
}

// mapViewSet is the map-backed ViewResolver NewSnapshotClient wraps:
// views keyed by address, covering the whole network.
type mapViewSet struct {
	views map[string]PartitionView
}

func (m mapViewSet) PartitionView(addr string) (PartitionView, bool) {
	v, ok := m.views[addr]
	return v, ok
}

func (m mapViewSet) KnownNode(string) bool { return false }

// NewResolverClient builds a client directly over a ViewResolver. The
// resolver must be immutable for the client's lifetime.
func NewResolverClient(src ViewResolver) *SnapshotClient {
	return &SnapshotClient{src: src}
}

// NewSnapshotClient builds a client over per-node views keyed by node
// address. The map is used as-is and must not be mutated afterwards.
func NewSnapshotClient(views map[string]PartitionView) *SnapshotClient {
	return NewResolverClient(mapViewSet{views: views})
}

// Query evaluates a provenance query of the given type for the tuple at
// node `at`, entirely against the frozen views. Result semantics match
// the live Client.Query — both run the identical provgraph walk, so
// proof trees, base-tuple sets, node sets, derivation counts, and
// truncation frontiers (for path-based limits, and for the node budget
// under Sequential order) are the same for the same state. Stats are
// modeled, not measured: Messages/Bytes count the request/response
// traffic the live traversal would have sent (each cross-node expansion
// is one request plus one response); Latency is zero because no virtual
// time passes in a snapshot. Options.UseCache is a no-op here: the
// per-node caches belong to live nodes, and serving-layer memoization
// is provided per snapshot version by internal/server instead.
func (c *SnapshotClient) Query(typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
	return c.QueryContext(context.Background(), typ, at, t, opts)
}

// QueryContext is Query with cancellation: once ctx is cancelled or
// its deadline passes, the synchronous walk stops expanding at the
// next vertex and the call returns an error wrapping ctx.Err() instead
// of a partial Result.
func (c *SnapshotClient) QueryContext(ctx context.Context, typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	v, ok := c.src.PartitionView(at)
	if !ok {
		if c.src.KnownNode(at) {
			return nil, fmt.Errorf("provquery: node %s: %w", at, ErrNotOwned)
		}
		return nil, fmt.Errorf("provquery: %w %s", ErrUnknownNode, at)
	}
	vid := t.VID()
	if _, ok := v.Derivations(vid); !ok {
		return nil, fmt.Errorf("provquery: tuple %s has %w at %s", t, ErrNoProvenance, at)
	}
	src := &snapSource{src: c.src}
	w := provgraph.NewWalkContext(ctx, src, typ, opts)
	var out provgraph.SubResult
	w.ResolveTuple(at, vid, nil, func(r provgraph.SubResult) { out = r })
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("provquery: query for %s aborted after %d vertices: %w", t, w.Resolved(), err)
	}
	if src.notOwned != "" {
		return nil, fmt.Errorf("provquery: query for %s crossed to node %s: %w", t, src.notOwned, ErrNotOwned)
	}
	res := provgraph.NewResult(typ, out)
	res.Stats = Stats{Messages: src.msgs, Bytes: src.bytes}
	return res, nil
}

// Run parses and executes a textual query (see ParseQuery).
func (c *SnapshotClient) Run(src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return c.Query(q.Type, q.At, q.Tuple, q.Opts)
}

// snapSource adapts frozen per-node views to the provgraph walk. All
// continuations fire synchronously, and each cross-node hop charges the
// modeled request/response pair the live traversal would have sent.
// One snapSource serves exactly one query; its counters are the walk's
// traffic model.
type snapSource struct {
	src   ViewResolver
	msgs  int
	bytes int
	// notOwned records the first known-but-unheld node the walk read,
	// turning the whole query into an ErrNotOwned failure.
	notOwned string
}

// view resolves loc's partition view, recording a cross-shard escape
// when loc is a known network node whose partition is not held here.
func (s *snapSource) view(loc string) (PartitionView, bool) {
	v, ok := s.src.PartitionView(loc)
	if !ok && s.src.KnownNode(loc) && s.notOwned == "" {
		s.notOwned = loc
	}
	return v, ok
}

func (s *snapSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	v, ok := s.view(loc)
	if !ok {
		return rel.Tuple{}, false
	}
	return v.TupleOf(vid)
}

func (s *snapSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	v, ok := s.view(loc)
	if !ok {
		return nil, false
	}
	return v.Derivations(vid)
}

func (s *snapSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	v, ok := s.view(loc)
	if !ok {
		return provenance.ExecEntry{}, false
	}
	return v.Exec(rid)
}

// ExpandRemote re-enters the walk at the executing node's view,
// charging one simulated request/response pair for the hop.
func (s *snapSource) ExpandRemote(w *provgraph.Walk, from, loc string, rid rel.ID, visited []rel.ID, cont func(provgraph.SubResult)) {
	if _, ok := s.view(loc); !ok {
		cont(provgraph.MissingResult(rid, loc))
		return
	}
	s.msgs++ // request
	s.bytes += provgraph.RequestSize(len(visited))
	w.ExpandExecLocal(loc, rid, visited, func(r provgraph.SubResult) {
		s.msgs++ // response
		s.bytes += provgraph.ResponseSize(w.Type, r)
		cont(r)
	})
}

// Snapshots have no per-node caches: views are immutable, so the
// serving layer (internal/server) memoizes whole sub-proofs per
// snapshot version instead.
func (s *snapSource) CacheGet(string, provgraph.CacheKey) (provgraph.SubResult, bool) {
	return provgraph.SubResult{}, false
}
func (s *snapSource) CachePut(string, provgraph.CacheKey, provgraph.SubResult) {}
