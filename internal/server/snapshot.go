// Package server turns a NetTrails simulation into a concurrent
// provenance query service: cmd/nettrailsd runs it behind an HTTP JSON
// API. Its core mechanism is epoch-snapshot isolation.
//
// The engine is single-threaded by contract — every runtime, table,
// and provenance partition belongs to the simulation thread (plus the
// epoch scheduler's confined workers). Live provquery queries are
// themselves simulation events: they travel over the simulated network
// and advance virtual time, so they cannot run concurrently with the
// simulation or with each other. A query *server* therefore never
// touches live state. Instead, a Publisher hooks the engine's epoch
// observer: after every fully-delivered virtual-time epoch — a
// consistent cut of the distributed execution — it builds an immutable
// Snapshot (copy-on-publish, with per-table and per-partition version
// tracking so unchanged state is handed off rather than re-copied) and
// swaps it into an atomic pointer. HTTP readers load the pointer and
// evaluate queries with provquery.SnapshotClient against the frozen
// views:
//
//   - readers never block the simulation loop (they take no locks the
//     publisher ever holds; publishing is one atomic store),
//   - the simulation never blocks readers (old snapshots stay valid
//     after newer ones are published),
//   - two queries pinned to the same snapshot version always see
//     byte-identical state, no matter how far the simulation has
//     advanced in between.
//
// A bounded ring of recent snapshots supports version pinning, and a
// logstore history of per-node captures supports time-travel reads
// (GET /v1/state/{node}?t=...).
package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/logstore"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/provstore"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// ShardSpec places one serving process inside a sharded deployment:
// it is shard Index of Total. Node ownership is positional and
// deterministic — the network's sorted node list is dealt round-robin,
// so node k (0-based position in the sorted list) belongs to shard
// k mod Total. Every shard and every gateway derives the same routing
// table from the node list alone; no coordination service is needed.
// The zero value (and any Total <= 1) means unsharded: one process
// owns every partition.
type ShardSpec struct {
	// Index is this shard's 0-based position, 0 <= Index < Total.
	Index int
	// Total is how many shards the deployment is split across.
	Total int
}

// Unsharded reports whether the spec describes a whole-network
// (single-process) deployment.
func (s ShardSpec) Unsharded() bool { return s.Total <= 1 }

// String renders the spec in the "index/total" form the -shard flag
// accepts.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Total) }

// ShardOf returns which shard of total owns the node at 0-based
// position pos of the sorted node list.
func ShardOf(pos, total int) int {
	if total <= 1 {
		return 0
	}
	return pos % total
}

// OwnedNodes filters the sorted node list down to the addresses the
// spec's shard owns (all of them when unsharded).
func (s ShardSpec) OwnedNodes(sorted []string) []string {
	if s.Unsharded() {
		return sorted
	}
	var out []string
	for i, addr := range sorted {
		if ShardOf(i, s.Total) == s.Index {
			out = append(out, addr)
		}
	}
	return out
}

// NodeInfo is the per-node metadata frozen into a snapshot.
//
// nettrails:frozen
type NodeInfo struct {
	Addr      string
	Neighbors []string
	Tuples    int // visible tuples across all tables
	Prov      provenance.Stats
	SentMsgs  int
	SentBytes int
}

// nodeState is one node's frozen partition inside a snapshot: the
// persistent table views, the provenance view, and the published
// metadata. When a node processed nothing between two epochs its
// *nodeState is carried into the next snapshot untouched — the handoff
// that makes publishing O(changed nodes), not O(network).
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type nodeState struct {
	tables map[string]*rel.Frozen
	view   *provenance.View
	info   NodeInfo
}

// Snapshot is one immutable published view of the whole system at a
// consistent virtual instant. Everything reachable from a Snapshot is
// frozen: concurrent readers share it without synchronization, and
// consecutive snapshots share every per-node state (tables, views,
// history rows) that did not change between them.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type Snapshot struct {
	// Version numbers published snapshots densely from 1; it increases
	// only when some node's state actually changed, so equal versions
	// imply identical state.
	Version uint64
	// Time is the virtual time of the epoch that produced the snapshot.
	Time simnet.Time
	// Nodes lists the node addresses this snapshot holds partitions
	// for, sorted — every node of the network when unsharded, only the
	// owned subset on a shard.
	Nodes []string
	// AllNodes lists every node address in the whole network, sorted.
	// Identical to Nodes when unsharded.
	AllNodes []string
	// Shard records which slice of the deployment this snapshot serves
	// (the zero value when unsharded).
	Shard ShardSpec
	// History is the time-indexed log of per-node captures up to and
	// including this snapshot (logstore-backed time travel).
	History *logstore.Store

	// states holds the frozen per-node partitions, parallel to Nodes;
	// index maps address -> position (one map, shared by every snapshot
	// of the publisher — the node set is fixed).
	states []*nodeState
	index  map[string]int
	query  *provquery.SnapshotClient
	// cache memoizes whole query results for this (immutable) version;
	// see querycache.go. It is evicted together with the snapshot when
	// the version ages out of the retention ring.
	cache *queryCache
}

// stateOf returns the frozen state of an owned node, nil otherwise.
func (s *Snapshot) stateOf(addr string) *nodeState {
	if i, ok := s.index[addr]; ok {
		return s.states[i]
	}
	return nil
}

// PartitionView resolves an owned node's provenance view; together
// with KnownNode this makes the snapshot itself the provquery
// ViewResolver, so no per-publish view map is materialized.
func (s *Snapshot) PartitionView(addr string) (provquery.PartitionView, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return nil, false
	}
	return st.view, true
}

// KnownNode reports whether addr is a node of the wider network whose
// partition lives on another shard (always false when unsharded: every
// network node is owned, so an unresolved address is simply unknown).
func (s *Snapshot) KnownNode(addr string) bool {
	if s.Shard.Unsharded() {
		return false
	}
	pos := sort.SearchStrings(s.AllNodes, addr)
	return pos < len(s.AllNodes) && s.AllNodes[pos] == addr
}

// Query evaluates a provenance query against this snapshot. Safe for
// concurrent use.
func (s *Snapshot) Query(typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (*provquery.Result, error) {
	return s.query.Query(typ, at, t, opts)
}

// QueryText evaluates a textual provenance query (provquery.ParseQuery
// grammar) against this snapshot. Safe for concurrent use.
func (s *Snapshot) QueryText(src string) (*provquery.Result, error) {
	return s.query.Run(src)
}

// NodeTables returns a node's frozen tables (persistent views keyed by
// relation); ok is false for unknown nodes.
func (s *Snapshot) NodeTables(addr string) (map[string]*rel.Frozen, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return nil, false
	}
	return st.tables, true
}

// viewOf returns an owned node's provenance view, nil otherwise.
func (s *Snapshot) viewOf(addr string) *provenance.View {
	if st := s.stateOf(addr); st != nil {
		return st.view
	}
	return nil
}

// misdirected returns the wrong-shard error for a node that exists in
// the network but is owned by another shard, and nil otherwise.
func (s *Snapshot) misdirected(addr string) *APIError {
	if s.Shard.Unsharded() || s.stateOf(addr) != nil {
		return nil
	}
	for i, a := range s.AllNodes {
		if a == addr {
			return Errf(http.StatusMisdirectedRequest, ErrWrongShard,
				"node %q is owned by shard %d/%d, not this shard (%s)",
				addr, ShardOf(i, s.Shard.Total), s.Shard.Total, s.Shard)
		}
	}
	return nil
}

// ring is the immutable list of retained snapshots, ascending by
// version; the last element is current. Swapped wholesale on publish.
//
// nettrails:frozen
type ring struct {
	snaps []*Snapshot
}

// Publisher builds snapshots from a live engine and publishes them for
// lock-free readers. All its methods except Current/At/Versions must
// run on the simulation thread (Publish is normally invoked via the
// engine's epoch observer and never called directly).
//
// The engine's node set is fixed once a deployment is constructed, so
// every node list, engine handle, and lookup structure is captured at
// construction; Publish itself allocates nothing per unchanged node.
type Publisher struct {
	eng    *engine.Engine
	retain int
	shard  ShardSpec

	allNodes   []string       // every node, sorted; shared by all snapshots
	nodes      []*engine.Node // parallel to allNodes
	owned      []string       // owned subset, sorted; shared by all snapshots
	ownedNodes []*engine.Node // parallel to owned
	ownedIdx   []int          // allNodes position -> owned position, -1 if unowned
	index      map[string]int // owned addr -> owned position; shared by all snapshots

	cur atomic.Pointer[ring]

	// Dirty tracking, parallel to allNodes. The activity counter gates
	// the scan: a node that processed nothing since the last publish is
	// skipped without touching its stores; when it did run, the state
	// and provenance versions decide precisely — versions are minted
	// only for visible state, so every shard of a deterministic run
	// still mints the identical dense version sequence.
	lastActivity []uint64
	lastState    []uint64
	lastProv     []uint64

	states    []*nodeState        // parallel to owned; spine copied per publish
	dirty     []int               // scratch: owned positions to rebuild this publish
	infoDirty []int               // scratch: owned positions refreshed info-only
	history   []logstore.Snapshot // append-only; wrapped via FromSorted

	// Distributed-mode (engine.DistObserver) accumulation between cuts:
	// Probe may run several times before Commit mints, so dirtiness is
	// gathered sticky here. inDirty is parallel to owned and dedups
	// pendingDirty; pendingChanged remembers that *some* owned node
	// changed since the last Commit.
	pendingDirty   []int
	inDirty        []bool
	pendingChanged bool

	// Disk persistence (nil without a store; see PublisherOptions).
	// verBase is the store's last version at attach time: minting
	// resumes at verBase+1 after a restart, and the first publish is
	// full (every owned node dirty) so the resumed chain stays
	// self-contained. pending/durableLen gate history trimming on what
	// the store has fsynced. The disk cache is the only publisher state
	// HTTP readers mutate, hence its own lock.
	store      *provstore.Store
	verBase    uint64
	pending    []histMark
	durableLen int

	diskMu    sync.Mutex
	diskCache map[uint64]*Snapshot
	diskOrder []uint64 // insertion-ordered diskCache keys (FIFO eviction)
}

// DefaultRetain is how many recent snapshot versions a publisher keeps
// for version-pinned reads when no explicit retention is given.
const DefaultRetain = 64

// NewPublisher attaches a publisher to the engine's epoch observer and
// publishes the initial snapshot (version 1) so Current never returns
// nil. retain bounds how many recent versions stay pinnable (values
// < 1 mean DefaultRetain).
func NewPublisher(eng *engine.Engine, retain int) (*Publisher, error) {
	return NewShardedPublisher(eng, retain, ShardSpec{})
}

// NewShardedPublisher is NewPublisher for one shard of a sharded
// deployment: the publisher freezes and retains only the partitions of
// the nodes the spec owns (round-robin over the sorted node list), so
// snapshot memory, history, and caches scale with the shard, not the
// network. Version numbering stays global: a snapshot is published
// whenever any node's state changed, owned or not, so every shard of
// the same deterministic run mints the same dense version sequence and
// a gateway can pin one version across all of them. Queries served
// from a sharded snapshot fail with a wrong-shard error if their
// traversal leaves the owned partitions.
func NewShardedPublisher(eng *engine.Engine, retain int, shard ShardSpec) (*Publisher, error) {
	return NewPublisherWithOptions(eng, PublisherOptions{Retain: retain, Shard: shard})
}

// Shard returns which slice of the deployment this publisher serves
// (the zero ShardSpec when unsharded).
func (p *Publisher) Shard() ShardSpec { return p.shard }

// Engine returns the engine this publisher observes. Everything but
// the snapshot accessors must run on the simulation thread; the
// engine is exposed for the process that owns that thread (churn
// loops, tests), not for HTTP readers.
func (p *Publisher) Engine() *engine.Engine { return p.eng }

// Detach removes the publisher from the engine's epoch (or, in a
// distributed engine, cut) observer. The already-published snapshots
// remain readable.
func (p *Publisher) Detach() {
	if p.eng.Clustered() {
		p.eng.SetDistObserver(nil)
		return
	}
	p.eng.SetEpochObserver(nil)
}

// Current returns the newest snapshot. Safe for concurrent use.
func (p *Publisher) Current() *Snapshot {
	r := p.cur.Load()
	return r.snaps[len(r.snaps)-1]
}

// At returns the retained snapshot with the given version; ok is false
// when it was never published or has aged out of retention. Version 0
// means current. With a snapshot store attached, versions older than
// the in-memory ring are rebuilt from disk (and cached), so pinned
// reads keep working as long as the store retains the version — even
// across a restart. Safe for concurrent use.
func (p *Publisher) At(version uint64) (*Snapshot, bool) {
	r := p.cur.Load()
	if version == 0 {
		return r.snaps[len(r.snaps)-1], true
	}
	// Versions are dense and ascending: index arithmetic, no scan.
	first := r.snaps[0].Version
	if version >= first && version <= r.snaps[len(r.snaps)-1].Version {
		return r.snaps[version-first], true
	}
	if version < first && p.store != nil {
		return p.diskAt(version)
	}
	return nil, false
}

// Versions returns the oldest and newest retained versions — oldest
// reaches back to the snapshot store's floor when one is attached.
// Safe for concurrent use.
func (p *Publisher) Versions() (oldest, newest uint64) {
	r := p.cur.Load()
	oldest, newest = r.snaps[0].Version, r.snaps[len(r.snaps)-1].Version
	if p.store != nil {
		if o := p.store.OldestVersion(); o != 0 && o < oldest {
			oldest = o
		}
	}
	return oldest, newest
}

// Publish builds a snapshot of the engine's state and publishes it.
// It runs on the simulation thread (epoch observer); between epochs no
// worker is active, so reading every node is race-free. When no node's
// state changed since the last publish, the current snapshot is
// returned unchanged — versions advance only with state. The change
// check always spans the whole network, even on a sharded publisher,
// so every shard of the same deterministic run mints the same version
// sequence (what lets a gateway pin one version everywhere); only the
// freezing is restricted to owned nodes.
func (p *Publisher) Publish() *Snapshot {
	prev := p.cur.Load()
	first := len(prev.snaps) == 0

	// Pass 1 — change scan over the whole network, gated by each node's
	// activity counter: a node that processed nothing since the last
	// publish is skipped without touching its stores. For nodes that
	// did run, the state and provenance versions decide precisely, so
	// the version-minting rule is unchanged: snapshots advance only
	// with visible state, identically on every shard.
	changed := first
	p.dirty = p.dirty[:0]
	for i, n := range p.nodes {
		act := n.Activity()
		if !first && act == p.lastActivity[i] {
			continue
		}
		p.lastActivity[i] = act
		sv, pv := n.RT.Store.StateVersion(), n.Prov.Version()
		if !first && sv == p.lastState[i] && pv == p.lastProv[i] {
			continue
		}
		p.lastState[i], p.lastProv[i] = sv, pv
		changed = true
		if oi := p.ownedIdx[i]; oi >= 0 {
			p.dirty = append(p.dirty, oi)
		}
	}
	if !changed {
		return prev.snaps[len(prev.snaps)-1]
	}

	// The first publish of a fresh deployment mints 1; after a restart
	// with a snapshot store it resumes the store's dense sequence at
	// verBase+1 (first=true made every owned node dirty above, so the
	// resumed chain's first record is self-contained).
	version := p.verBase + 1
	if !first {
		version = prev.snaps[len(prev.snaps)-1].Version + 1
	}
	return p.mint(version, p.dirty)
}

// Probe is the local half of the distributed observer contract
// (engine.DistObserver): scan the owned nodes for changes since the
// last Commit and report stickily. Only owned nodes are scanned — in a
// distributed engine the unowned replicas miss the delta traffic that
// executes at their owners, so their versions are meaningless here; the
// whole-network change verdict is assembled by the engine from every
// member's probe bit.
func (p *Publisher) Probe() bool {
	for i, n := range p.nodes {
		oi := p.ownedIdx[i]
		if oi < 0 {
			continue
		}
		act := n.Activity()
		if act == p.lastActivity[i] {
			continue
		}
		p.lastActivity[i] = act
		sv, pv := n.RT.Store.StateVersion(), n.Prov.Version()
		if sv == p.lastState[i] && pv == p.lastProv[i] {
			continue
		}
		p.lastState[i], p.lastProv[i] = sv, pv
		p.pendingChanged = true
		if !p.inDirty[oi] {
			p.inDirty[oi] = true
			p.pendingDirty = append(p.pendingDirty, oi)
		}
	}
	return p.pendingChanged
}

// Commit is the cut half of the distributed observer contract: changed
// is the OR of every member's probe bit at a global consistent cut.
// When true a version is minted even if nothing changed locally — the
// change happened at a peer, and the version sequence must stay dense
// and identical across members (exactly the sharded-publisher rule in
// Publish, with the whole-network scan replaced by the exchanged bit).
// The initial snapshot comes from the constructor's Publish call, so a
// previous version always exists.
func (p *Publisher) Commit(changed bool) {
	if !changed {
		return
	}
	sort.Ints(p.pendingDirty)
	prev := p.cur.Load().snaps
	p.mint(prev[len(prev)-1].Version+1, p.pendingDirty)
	for _, oi := range p.pendingDirty {
		p.inDirty[oi] = false
	}
	p.pendingDirty = p.pendingDirty[:0]
	p.pendingChanged = false
}

// mint builds and publishes the snapshot with the given version,
// rebuilding the owned positions listed in dirty (ascending). It is the
// shared back half of Publish and Commit.
func (p *Publisher) mint(version uint64, dirty []int) *Snapshot {
	prev := p.cur.Load()
	now := p.eng.Net.Now()

	// Pass 2 — rebuild only the dirty owned partitions. FreezeAll and
	// View are persistent handoffs (O(1) per unchanged table, O(dirty
	// buckets) per provenance partition); every clean node's *nodeState
	// rides into the new snapshot untouched.
	states := make([]*nodeState, len(p.states))
	copy(states, p.states)
	for _, oi := range dirty {
		addr := p.owned[oi]
		n := p.ownedNodes[oi]
		tables, count := n.RT.Store.FreezeAll()
		view := n.Prov.View()
		info := NodeInfo{
			Addr:      addr,
			Neighbors: p.eng.Net.Neighbors(addr),
			Tuples:    count,
			Prov:      view.Statistics(),
		}
		if sent, _, ok := p.eng.Net.NodeTraffic(addr); ok {
			info.SentMsgs = sent.Messages
			info.SentBytes = sent.Bytes
		}
		states[oi] = &nodeState{tables: tables, view: view, info: info}
		// History rows are sparse: one per state change, carried
		// forward by At()'s latest-at-or-before semantics.
		p.history = append(p.history, logstore.Snapshot{
			Time:        now,
			Node:        addr,
			Tables:      tables,
			ProvEntries: info.Prov.ProvEntries,
			ExecEntries: info.Prov.ExecEntries,
			Neighbors:   info.Neighbors,
			SentMsgs:    info.SentMsgs,
			SentBytes:   info.SentBytes,
		})
	}
	// Traffic can move without state changing anywhere on the node (a
	// collector shipping snapshots, say): refresh the published counters
	// of carried-over states with an O(1) compare per node, sharing the
	// tables and view of the previous state. Dirty nodes never retrigger
	// here — their counters were just read — so infoDirty stays disjoint
	// from dirty (and ascending, which the store's Append requires).
	p.infoDirty = p.infoDirty[:0]
	for oi, st := range states {
		if sent, _, ok := p.eng.Net.NodeTraffic(p.owned[oi]); ok &&
			(sent.Messages != st.info.SentMsgs || sent.Bytes != st.info.SentBytes) {
			info := st.info
			info.SentMsgs, info.SentBytes = sent.Messages, sent.Bytes
			states[oi] = &nodeState{tables: st.tables, view: st.view, info: info}
			p.infoDirty = append(p.infoDirty, oi)
		}
	}
	p.states = states
	if p.store != nil {
		p.teeToStore(version, now, states, dirty)
	}
	p.trimHistory()

	snap := &Snapshot{
		Version:  version,
		Time:     now,
		Nodes:    p.owned,
		AllNodes: p.allNodes,
		Shard:    p.shard,
		History:  logstore.FromSorted(p.history[:len(p.history):len(p.history)]),
		states:   states,
		index:    p.index,
	}
	// The snapshot is its own view resolver: no per-publish view map.
	snap.query = provquery.NewResolverClient(snap)
	snap.cache = newQueryCache()

	snaps := append(append([]*Snapshot{}, prev.snaps...), snap)
	if len(snaps) > p.retain {
		snaps = snaps[len(snaps)-p.retain:]
	}
	p.cur.Store(&ring{snaps: snaps})
	return snap
}

// trimHistory bounds the append-only history list. Rows are sparse —
// only state-changed nodes append — so a plain suffix cut could drop a
// quiet node's only row. Instead, once the list exceeds twice the
// retention window, it is rebuilt into a fresh backing array holding
// the window's suffix plus, for each node absent from that suffix, its
// latest earlier row (carry-forward, original time order preserved).
// The fresh array leaves every published snapshot's History intact.
//
// With a snapshot store attached, the cut additionally never crosses
// durableLen: rows whose version the store has not fsynced yet would
// be unrecoverable after a crash, so they stay in memory (the list
// temporarily overshoots its bound) until a sync catches up.
func (p *Publisher) trimHistory() {
	maxLen := p.retain * len(p.owned)
	if len(p.history) <= 2*maxLen {
		return
	}
	cut := len(p.history) - maxLen
	if p.store != nil {
		durable := p.store.DurableVersion()
		for len(p.pending) > 0 && p.pending[0].version <= durable {
			p.durableLen = p.pending[0].histLen
			p.pending = p.pending[1:]
		}
		if cut > p.durableLen {
			cut = p.durableLen
		}
		if cut <= 0 {
			return
		}
	}
	suffix := p.history[cut:]
	inSuffix := make(map[string]bool, len(p.owned))
	for i := range suffix {
		inSuffix[suffix[i].Node] = true
	}
	latest := map[string]int{}
	for i := 0; i < cut; i++ {
		if !inSuffix[p.history[i].Node] {
			latest[p.history[i].Node] = i
		}
	}
	keep := make([]int, 0, len(latest))
	for _, i := range latest {
		keep = append(keep, i)
	}
	sort.Ints(keep)
	out := make([]logstore.Snapshot, 0, len(keep)+len(suffix))
	for _, i := range keep {
		out = append(out, p.history[i])
	}
	out = append(out, suffix...)
	if p.store != nil {
		// Remap the durable watermark and pending marks onto the fresh
		// array: carried rows all came from the durable prefix (cut <=
		// durableLen), and row i >= cut now lives at len(keep)+(i-cut).
		base := len(keep)
		p.durableLen = base + (p.durableLen - cut)
		for i := range p.pending {
			p.pending[i].histLen = base + (p.pending[i].histLen - cut)
		}
	}
	p.history = out
}
