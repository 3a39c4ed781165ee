package gateway

import (
	"context"
	"fmt"

	"repro/client"
	"repro/internal/provenance"
	"repro/internal/provgraph"
	"repro/internal/rel"
)

// fedSource adapts a sharded deployment to the provgraph walk: the
// federated face of the one-walk design. Every partition read fans out
// over HTTP to the owning shard's POST /v1/prov/read, pinned to the
// same snapshot version everywhere.
//
// Cross-node hops are deferred: ExpandRemote queues the expansion and
// the query driver flushes the queue in rounds, so sibling expansions
// landing on the same shard ride one batched read request instead of
// one round trip each.
//
// Cost accounting is two-ledger. The modeled ledger (msgs/bytes)
// charges every cross-node hop the identical request/response sizes
// the snapshot adapter charges, so a federated answer's stats — and
// therefore its whole response body — stay byte-identical to the
// single-process answer. The real ledger (hops) counts downstream
// HTTP requests actually issued, surfaced as the X-Shard-Hops header:
// what federation really cost, next to what the simulated network
// would have charged.
//
// One fedSource serves exactly one walk and is not safe for
// concurrent use, mirroring the walk itself.
type fedSource struct {
	g       *Gateway
	ctx     context.Context
	version uint64

	verts map[locID]vertexData
	execs map[locID]execData

	msgs  int // modeled ledger: simulated messages
	bytes int // modeled ledger: simulated bytes
	hops  int // real ledger: downstream HTTP requests issued

	pending []pendingExpand

	// err is the first transport/protocol failure; once set, the walk
	// is abandoned and the query fails as a whole (never a silently
	// partial answer).
	err error
}

type locID struct {
	loc string
	id  rel.ID
}

// vertexData mirrors one ProvVertex after decoding: the two
// independent lookups a local walk would have performed.
type vertexData struct {
	tupleOK  bool
	tuple    rel.Tuple
	derivsOK bool
	derivs   []provenance.Entry
}

type execData struct {
	ok   bool
	exec provenance.ExecEntry
}

type pendingExpand struct {
	loc     string
	rid     rel.ID
	visited []rel.ID
	cont    func(provgraph.SubResult)
}

func newFedSource(g *Gateway, ctx context.Context, version uint64) *fedSource {
	return &fedSource{
		g:       g,
		ctx:     ctx,
		version: version,
		verts:   map[locID]vertexData{},
		execs:   map[locID]execData{},
	}
}

// fail records the first downstream failure.
func (s *fedSource) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// readShard issues one batch of reads against the shard owning them
// (one real hop per request).
func (s *fedSource) readShard(shard int, ops []client.ProvReadOp) ([]client.ProvReadResult, error) {
	s.hops++
	res, err := s.g.clients[shard].ProvRead(s.ctx, s.version, ops)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// decodeVertex turns a wire vertex into walk-ready partition data.
func decodeVertex(vid rel.ID, pv client.ProvVertex) (vertexData, error) {
	out := vertexData{tupleOK: pv.TupleOK, derivsOK: pv.DerivsOK}
	if pv.TupleOK {
		t, err := rel.UnmarshalTuple(pv.Tuple)
		if err != nil {
			return out, fmt.Errorf("bad tuple encoding: %w", err)
		}
		out.tuple = t
	}
	if pv.DerivsOK {
		out.derivs = make([]provenance.Entry, len(pv.Derivs))
		for i, d := range pv.Derivs {
			e := provenance.Entry{VID: vid, RLoc: d.RLoc}
			if d.RID != "" {
				rid, err := rel.ParseID(d.RID)
				if err != nil {
					return out, fmt.Errorf("bad rid: %w", err)
				}
				e.RID = rid
			}
			out.derivs[i] = e
		}
	}
	return out, nil
}

// absorb decodes one read result into the source's caches.
func (s *fedSource) absorb(op client.ProvReadOp, r client.ProvReadResult) error {
	if r.Err != "" {
		return fmt.Errorf("shard read %s %s@%s failed: %s", op.Op, op.ID, op.Loc, r.Err)
	}
	id, err := rel.ParseID(op.ID)
	if err != nil {
		return err
	}
	switch op.Op {
	case client.ProvReadVertex:
		vd, err := decodeVertex(id, r.ProvVertex)
		if err != nil {
			return err
		}
		s.verts[locID{op.Loc, id}] = vd
	case client.ProvReadExec:
		ed := execData{ok: r.ExecOK}
		if r.ExecOK {
			ed.exec = provenance.ExecEntry{RID: id, Rule: r.Exec.Rule}
			for _, vs := range r.Exec.VIDs {
				vid, err := rel.ParseID(vs)
				if err != nil {
					return fmt.Errorf("bad vid: %w", err)
				}
				ed.exec.VIDs = append(ed.exec.VIDs, vid)
			}
			for _, in := range r.Inputs {
				vid, err := rel.ParseID(in.VID)
				if err != nil {
					return fmt.Errorf("bad input vid: %w", err)
				}
				vd, err := decodeVertex(vid, in.ProvVertex)
				if err != nil {
					return err
				}
				s.verts[locID{op.Loc, vid}] = vd
			}
		}
		s.execs[locID{op.Loc, id}] = ed
	}
	return nil
}

// vertex resolves (loc, vid) through the cache, with a synchronous
// single read on a miss.
func (s *fedSource) vertex(loc string, vid rel.ID) vertexData {
	key := locID{loc, vid}
	if vd, ok := s.verts[key]; ok {
		return vd
	}
	if s.err != nil {
		return vertexData{}
	}
	shard, ok := s.g.table[loc]
	if !ok {
		// The walk never reaches here for unknown nodes (derivation
		// entries only name real nodes), but fail safe.
		s.fail(fmt.Errorf("unknown node %q", loc))
		return vertexData{}
	}
	op := client.ProvReadOp{Op: client.ProvReadVertex, Loc: loc, ID: vid.String()}
	res, err := s.readShard(shard, []client.ProvReadOp{op})
	if err != nil {
		s.fail(err)
		return vertexData{}
	}
	if err := s.absorb(op, res[0]); err != nil {
		s.fail(err)
		return vertexData{}
	}
	return s.verts[key]
}

// execAt resolves (loc, rid) through the cache, with a synchronous
// single read on a miss (its input vertices arrive piggybacked).
func (s *fedSource) execAt(loc string, rid rel.ID) execData {
	key := locID{loc, rid}
	if ed, ok := s.execs[key]; ok {
		return ed
	}
	if s.err != nil {
		return execData{}
	}
	shard, ok := s.g.table[loc]
	if !ok {
		s.fail(fmt.Errorf("unknown node %q", loc))
		return execData{}
	}
	op := client.ProvReadOp{Op: client.ProvReadExec, Loc: loc, ID: rid.String()}
	res, err := s.readShard(shard, []client.ProvReadOp{op})
	if err != nil {
		s.fail(err)
		return execData{}
	}
	if err := s.absorb(op, res[0]); err != nil {
		s.fail(err)
		return execData{}
	}
	return s.execs[key]
}

// ---- provgraph.Source ---------------------------------------------------

// TupleOf resolves a pinned VID at loc via the owning shard.
func (s *fedSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	vd := s.vertex(loc, vid)
	return vd.tuple, vd.tupleOK
}

// Derivations returns the derivation entries of vid at loc.
func (s *fedSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	vd := s.vertex(loc, vid)
	return vd.derivs, vd.derivsOK
}

// Exec returns the rule execution recorded for rid at loc.
func (s *fedSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	ed := s.execAt(loc, rid)
	return ed.exec, ed.ok
}

// ExpandRemote charges the modeled request/response pair the live
// traversal would have sent for the cross-node hop, then defers the
// expansion so the flush can batch it with siblings landing on the
// same shard.
func (s *fedSource) ExpandRemote(w *provgraph.Walk, from, loc string, rid rel.ID, visited []rel.ID, cont func(provgraph.SubResult)) {
	s.msgs++ // request
	s.bytes += provgraph.RequestSize(len(visited))
	s.pending = append(s.pending, pendingExpand{
		loc: loc, rid: rid, visited: visited,
		cont: func(r provgraph.SubResult) {
			s.msgs++ // response
			s.bytes += provgraph.ResponseSize(w.Type, r)
			cont(r)
		},
	})
}

// flush runs one round of deferred expansions: prefetch every missing
// exec (one batched read per shard), then re-enter the walk for each
// expansion in order. New expansions queued by the re-entry wait for
// the next round.
func (s *fedSource) flush(w *provgraph.Walk) {
	batch := s.pending
	s.pending = nil
	perShard := map[int][]client.ProvReadOp{}
	queued := map[locID]bool{}
	for _, it := range batch {
		key := locID{it.loc, it.rid}
		if _, ok := s.execs[key]; ok || queued[key] {
			continue
		}
		shard, ok := s.g.table[it.loc]
		if !ok {
			s.fail(fmt.Errorf("unknown node %q", it.loc))
			return
		}
		queued[key] = true
		perShard[shard] = append(perShard[shard],
			client.ProvReadOp{Op: client.ProvReadExec, Loc: it.loc, ID: it.rid.String()})
	}
	for shard, ops := range perShard {
		res, err := s.readShard(shard, ops)
		if err != nil {
			s.fail(err)
			return
		}
		for i, op := range ops {
			if err := s.absorb(op, res[i]); err != nil {
				s.fail(err)
				return
			}
		}
	}
	for _, it := range batch {
		if s.err != nil {
			return
		}
		w.ExpandExecLocal(it.loc, it.rid, it.visited, it.cont)
	}
}

// CacheGet always misses: per-node caching is a live-engine feature;
// federated evaluation memoizes whole results per pinned version at
// the gateway instead.
func (s *fedSource) CacheGet(string, provgraph.CacheKey) (provgraph.SubResult, bool) {
	return provgraph.SubResult{}, false
}

// CachePut is a no-op; see CacheGet.
func (s *fedSource) CachePut(string, provgraph.CacheKey, provgraph.SubResult) {}
