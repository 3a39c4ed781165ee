package server

import (
	"fmt"
	"net/http"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/logstore"
	"repro/internal/provquery"
	"repro/internal/provstore"
	"repro/internal/simnet"
)

// PublisherOptions configures a publisher beyond the retention ring:
// its place in a sharded deployment and, optionally, a log-structured
// on-disk snapshot store every published version is teed into.
type PublisherOptions struct {
	// Retain bounds how many recent versions stay pinnable in memory
	// (values < 1 mean DefaultRetain).
	Retain int
	// Shard places the publisher in a sharded deployment (the zero
	// value means unsharded).
	Shard ShardSpec
	// Store, when non-nil, persists every published version. Reads of
	// versions that aged out of the in-memory ring fall back to it, so
	// pinned clients never see snapshot_evicted while the store retains
	// the version — including across a process restart, when the
	// publisher resumes minting at Store.LastVersion()+1. The publisher
	// does not own the store: the process that opened it closes it
	// after the engine stops.
	Store *provstore.Store
}

// histMark remembers how long the history list was when one version
// was published, so trimming can tell which rows the store has made
// durable (every row with index < histLen is captured by versions
// <= version).
type histMark struct {
	version uint64
	histLen int
}

// NewPublisherWithOptions is the fully-optioned publisher constructor;
// NewPublisher and NewShardedPublisher are shorthands for it.
func NewPublisherWithOptions(eng *engine.Engine, opts PublisherOptions) (*Publisher, error) {
	retain := opts.Retain
	if retain < 1 {
		retain = DefaultRetain
	}
	shard := opts.Shard
	if shard.Total < 0 || (shard.Total > 0 && (shard.Index < 0 || shard.Index >= shard.Total)) {
		return nil, fmt.Errorf("server: bad shard spec %s", shard)
	}
	all := eng.Nodes()
	if shard.Total > len(all) {
		return nil, fmt.Errorf("server: %d shards over %d nodes leaves empty shards", shard.Total, len(all))
	}
	p := &Publisher{
		eng:          eng,
		retain:       retain,
		shard:        shard,
		allNodes:     all,
		nodes:        make([]*engine.Node, len(all)),
		ownedIdx:     make([]int, len(all)),
		index:        make(map[string]int),
		lastActivity: make([]uint64, len(all)),
		lastState:    make([]uint64, len(all)),
		lastProv:     make([]uint64, len(all)),
	}
	for i, addr := range all {
		n, _ := eng.Node(addr)
		if n.Prov == nil {
			return nil, fmt.Errorf("server: node %s has no provenance store", addr)
		}
		p.nodes[i] = n
		p.ownedIdx[i] = -1
		if shard.Unsharded() || ShardOf(i, shard.Total) == shard.Index {
			p.ownedIdx[i] = len(p.owned)
			p.index[addr] = len(p.owned)
			p.owned = append(p.owned, addr)
			p.ownedNodes = append(p.ownedNodes, n)
		}
	}
	if opts.Store != nil {
		// Version records address nodes by owned index, so the store's
		// identity must match this shard's exactly.
		if !slices.Equal(opts.Store.Owned(), p.owned) {
			return nil, fmt.Errorf("server: snapshot store owns %d nodes, shard %s owns %d (different deployment?)",
				len(opts.Store.Owned()), shard, len(p.owned))
		}
		p.store = opts.Store
		p.verBase = opts.Store.LastVersion()
		p.diskCache = map[uint64]*Snapshot{}
	}
	p.states = make([]*nodeState, len(p.owned))
	p.inDirty = make([]bool, len(p.owned))
	p.cur.Store(&ring{})
	// The initial snapshot is built by a direct Publish either way: at
	// attach time a distributed engine's replicas are still identical
	// (nothing has diverged before the first clustered drain), so every
	// member mints a consistent version 1.
	p.Publish()
	if eng.Clustered() {
		eng.SetDistObserver(p)
	} else {
		eng.SetEpochObserver(func() { p.Publish() })
	}
	return p, nil
}

// Store returns the attached snapshot store (nil without one). The
// owning process uses it for shutdown syncs; handlers use it for
// deep-history queries.
func (p *Publisher) Store() *provstore.Store { return p.store }

// storeInfo converts published node metadata to the store's wire form
// (the address travels positionally, by owned index).
func storeInfo(info NodeInfo) provstore.Info {
	return provstore.Info{
		Neighbors: info.Neighbors,
		Tuples:    info.Tuples,
		Prov:      info.Prov,
		SentMsgs:  info.SentMsgs,
		SentBytes: info.SentBytes,
	}
}

// publishedInfo is storeInfo's inverse.
func publishedInfo(addr string, info provstore.Info) NodeInfo {
	return NodeInfo{
		Addr:      addr,
		Neighbors: info.Neighbors,
		Tuples:    info.Tuples,
		Prov:      info.Prov,
		SentMsgs:  info.SentMsgs,
		SentBytes: info.SentBytes,
	}
}

// teeToStore appends the version just published to the snapshot store:
// state entries for the rebuilt partitions, info updates for the
// traffic-only refreshes (both already in ascending owned order). It
// runs on the simulation thread, right after the states are built. A
// failed append is fatal — the store was requested, and continuing
// would silently break the no-eviction contract and leave a version
// gap the store can never fill.
func (p *Publisher) teeToStore(version uint64, now simnet.Time, states []*nodeState, dirty []int) {
	in := provstore.VersionInput{Version: version, Time: int64(now)}
	for _, oi := range dirty {
		st := states[oi]
		in.States = append(in.States, provstore.NodeState{
			OwnedIdx: oi,
			Info:     storeInfo(st.info),
			Tables:   st.tables,
			View:     st.view,
		})
	}
	for _, oi := range p.infoDirty {
		in.Infos = append(in.Infos, provstore.InfoUpdate{OwnedIdx: oi, Info: storeInfo(states[oi].info)})
	}
	if err := p.store.Append(in); err != nil {
		panic(fmt.Sprintf("server: snapshot store append failed at version %d: %v", version, err))
	}
	p.pending = append(p.pending, histMark{version: version, histLen: len(p.history)})
}

// diskCacheSize bounds the materialized historical snapshots kept
// alive for repeated reads (FIFO; each entry carries full rebuilt
// tables and views, so the bound is deliberately small).
const diskCacheSize = 16

// diskAt serves a version that aged out of the in-memory ring from
// the snapshot store. Safe for concurrent use; materialized snapshots
// are cached so a pinned client's request burst rebuilds once.
func (p *Publisher) diskAt(version uint64) (*Snapshot, bool) {
	p.diskMu.Lock()
	if snap, ok := p.diskCache[version]; ok {
		p.diskMu.Unlock()
		return snap, true
	}
	p.diskMu.Unlock()

	vd, err := p.store.Materialize(version)
	if err != nil {
		return nil, false
	}
	snap := p.snapshotFromDisk(vd)

	p.diskMu.Lock()
	defer p.diskMu.Unlock()
	if cached, ok := p.diskCache[version]; ok {
		// A concurrent reader built it first; share its query cache.
		return cached, true
	}
	p.diskCache[version] = snap
	p.diskOrder = append(p.diskOrder, version)
	if len(p.diskOrder) > diskCacheSize {
		delete(p.diskCache, p.diskOrder[0])
		p.diskOrder = p.diskOrder[1:]
	}
	return snap, true
}

// snapshotFromDisk rebuilds a full Snapshot from materialized store
// data. The store's contract makes the frozen tables and views
// bit-for-bit equivalent to what was teed in, so responses rendered
// from this snapshot are byte-identical to what the live ring served
// at that version. Its history is shallower than the live ring's —
// one row per node, the version that last changed its state — which
// bounds the rebuild at O(nodes) instead of O(retained rows).
func (p *Publisher) snapshotFromDisk(vd *provstore.VersionData) *Snapshot {
	states := make([]*nodeState, len(vd.Nodes))
	rows := make([]logstore.Snapshot, 0, len(vd.Nodes))
	for i := range vd.Nodes {
		nd := &vd.Nodes[i]
		states[i] = &nodeState{
			tables: nd.Tables,
			view:   nd.View,
			info:   publishedInfo(nd.Addr, nd.Info),
		}
		rows = append(rows, logstore.Snapshot{
			Time:        simnet.Time(nd.StateTime),
			Node:        nd.Addr,
			Tables:      nd.Tables,
			ProvEntries: nd.StateInfo.Prov.ProvEntries,
			ExecEntries: nd.StateInfo.Prov.ExecEntries,
			Neighbors:   nd.StateInfo.Neighbors,
			SentMsgs:    nd.StateInfo.SentMsgs,
			SentBytes:   nd.StateInfo.SentBytes,
		})
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Time < rows[b].Time })
	snap := &Snapshot{
		Version:  vd.Version,
		Time:     simnet.Time(vd.Time),
		Nodes:    p.owned,
		AllNodes: p.allNodes,
		Shard:    p.shard,
		History:  logstore.FromSorted(rows),
		states:   states,
		index:    p.index,
	}
	snap.query = provquery.NewResolverClient(snap)
	snap.cache = newQueryCache()
	return snap
}

// ---- GET /v1/history/first ----------------------------------------------

// HistoryFirstJSON is the GET /v1/history/first body: the earliest
// retained version at which the tuple was visible at the node.
type HistoryFirstJSON struct {
	Tuple        TupleJSON `json:"tuple"`
	Node         string    `json:"node"`
	FirstVersion uint64    `json:"firstVersion"`
	TimeUs       int64     `json:"virtualTimeUs"`
	// OldestVersion is the store's retention floor: when FirstVersion
	// equals it, the tuple may have first appeared even earlier, in
	// history that retention has deleted.
	OldestVersion uint64 `json:"oldestVersion"`
}

// handleHistoryFirst answers the deep-history query class: the first
// version where tuple X exists at a node. It reads the snapshot
// store's per-segment first-seen indexes, not any retained snapshot,
// so there is no version pinning and no ETag — the answer can extend
// further back than the in-memory ring.
func (s *Server) handleHistoryFirst(w http.ResponseWriter, r *http.Request) {
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
	snap := s.pub.Current()
	if snap.stateOf(at) == nil {
		if apiErr := snap.misdirected(at); apiErr != nil {
			WriteAPIError(w, apiErr)
			return
		}
		WriteErr(w, http.StatusNotFound, ErrUnknownNode, "unknown node %q", at)
		return
	}
	st := s.pub.Store()
	if st == nil {
		WriteErr(w, http.StatusNotImplemented, ErrNoHistory,
			"no snapshot store attached; first-version queries need the daemon started with -data")
		return
	}
	v, ok := st.FirstVersion(at, t.VID())
	if !ok {
		WriteErr(w, http.StatusNotFound, ErrNoHistory,
			"tuple %s was never seen at %q in the retained history", t, at)
		return
	}
	out := HistoryFirstJSON{
		Tuple:         JSONTuple(t),
		Node:          at,
		FirstVersion:  v,
		OldestVersion: st.OldestVersion(),
	}
	// Best-effort: the version can age out between the index probe and
	// the time lookup; the answer itself is still valid.
	if tm, err := st.VersionTime(v); err == nil {
		out.TimeUs = tm
	}
	WriteJSON(w, http.StatusOK, out)
}
