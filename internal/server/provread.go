package server

import (
	"net/http"
	"sort"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// This file is the shard-federation read protocol: POST /v1/prov/read
// serves batched, version-pinned reads of the provenance partitions a
// shard owns, and GET /v1/shards describes the shard so a gateway (or
// the SDK) can build the node→shard routing table. A federating
// gateway runs the provgraph walk itself and uses these reads to
// resolve vertices on remote shards; everything it fetches is frozen
// snapshot state, so responses are immutable per version and freely
// cacheable downstream.

// Prov-read op kinds: a "vertex" read resolves one tuple VID at a node
// (its pinned tuple value plus its derivation entries); an "exec" read
// resolves one rule execution RID at the node where it ran, and
// piggybacks the vertex data of every input tuple — inputs are local
// to the executing node, so one exec read hands the walk everything it
// needs to keep going there.
const (
	ProvReadVertex = "vertex"
	ProvReadExec   = "exec"
)

// MaxProvReads bounds how many ops one POST /v1/prov/read request may
// carry.
const MaxProvReads = 4096

// ProvReadOp is one partition read inside a POST /v1/prov/read batch.
type ProvReadOp struct {
	// Op is ProvReadVertex or ProvReadExec.
	Op string `json:"op"`
	// Loc is the node address whose partition is read.
	Loc string `json:"loc"`
	// ID is the full 40-hex-digit VID (vertex) or RID (exec).
	ID string `json:"id"`
}

// ProvDerivJSON is one prov-table entry of a vertex: the rule
// execution that derived it and where that execution ran. Both fields
// are empty for a base-tuple derivation.
type ProvDerivJSON struct {
	RID  string `json:"rid,omitempty"`
	RLoc string `json:"rloc,omitempty"`
}

// ProvExecJSON is one ruleExec-table entry: the rule name and the
// VIDs of its input tuples (all local to the executing node).
type ProvExecJSON struct {
	Rule string   `json:"rule"`
	VIDs []string `json:"vids"`
}

// ProvVertexJSON is one tuple vertex as the read protocol ships it:
// the canonical binary tuple encoding (base64 on the wire) and the
// derivation entries. TupleOK/DerivsOK mirror the two independent
// partition lookups so a federated walk reproduces the exact
// missing-data behaviour of a local one.
type ProvVertexJSON struct {
	TupleOK  bool            `json:"tupleOk,omitempty"`
	Tuple    []byte          `json:"tuple,omitempty"`
	DerivsOK bool            `json:"derivsOk,omitempty"`
	Derivs   []ProvDerivJSON `json:"derivs,omitempty"`
}

// ProvInputJSON is the piggybacked vertex data of one exec input.
type ProvInputJSON struct {
	VID string `json:"vid"`
	ProvVertexJSON
}

// ProvReadResult is the answer to one ProvReadOp, in request order.
// Err is a stable error code ("wrong_shard", "unknown_node",
// "invalid_request") when the op itself was misdirected or malformed;
// data that is merely absent from the partition is not an error — it
// surfaces as TupleOK/DerivsOK/ExecOK false, exactly like the local
// lookups it mirrors.
type ProvReadResult struct {
	Err string `json:"error,omitempty"`
	ProvVertexJSON
	ExecOK bool            `json:"execOk,omitempty"`
	Exec   *ProvExecJSON   `json:"exec,omitempty"`
	Inputs []ProvInputJSON `json:"inputs,omitempty"`
}

// ProvReadRequest is the POST /v1/prov/read body.
type ProvReadRequest struct {
	// Version pins the snapshot every read resolves against (0 means
	// current; sharded federation always pins explicitly).
	Version uint64 `json:"version,omitempty"`
	// Reads are executed independently, results in request order.
	Reads []ProvReadOp `json:"reads"`
}

// ProvReadResponse is the POST /v1/prov/read body: one result per
// read, in order, all resolved against the one pinned version.
type ProvReadResponse struct {
	Version uint64           `json:"version"`
	Results []ProvReadResult `json:"results"`
}

// vertexOf assembles the ProvVertexJSON of vid at the given view.
func vertexOf(v *provenance.View, vid rel.ID) ProvVertexJSON {
	var out ProvVertexJSON
	if t, ok := v.TupleOf(vid); ok {
		out.TupleOK = true
		out.Tuple = rel.MarshalTuple(t)
	}
	if derivs, ok := v.Derivations(vid); ok {
		out.DerivsOK = true
		out.Derivs = make([]ProvDerivJSON, len(derivs))
		for i, d := range derivs {
			if !d.RID.IsZero() {
				out.Derivs[i] = ProvDerivJSON{RID: d.RID.String(), RLoc: d.RLoc}
			}
		}
	}
	return out
}

// ProvRead answers one batch of partition reads against this
// snapshot. Safe for concurrent use (the snapshot is immutable).
func (s *Snapshot) ProvRead(ops []ProvReadOp) []ProvReadResult {
	out := make([]ProvReadResult, len(ops))
	for i, op := range ops {
		out[i] = s.provReadOne(op)
	}
	return out
}

func (s *Snapshot) provReadOne(op ProvReadOp) ProvReadResult {
	v := s.viewOf(op.Loc)
	if v == nil {
		pos := sort.SearchStrings(s.AllNodes, op.Loc)
		if pos < len(s.AllNodes) && s.AllNodes[pos] == op.Loc {
			return ProvReadResult{Err: ErrWrongShard}
		}
		return ProvReadResult{Err: ErrUnknownNode}
	}
	id, err := rel.ParseID(op.ID)
	if err != nil {
		return ProvReadResult{Err: ErrInvalidRequest}
	}
	switch op.Op {
	case ProvReadVertex:
		return ProvReadResult{ProvVertexJSON: vertexOf(v, id)}
	case ProvReadExec:
		var out ProvReadResult
		exec, ok := v.Exec(id)
		if !ok {
			return out
		}
		out.ExecOK = true
		out.Exec = &ProvExecJSON{Rule: exec.Rule, VIDs: make([]string, len(exec.VIDs))}
		seen := map[rel.ID]bool{}
		for i, vid := range exec.VIDs {
			out.Exec.VIDs[i] = vid.String()
			if seen[vid] {
				continue
			}
			seen[vid] = true
			out.Inputs = append(out.Inputs, ProvInputJSON{
				VID:            vid.String(),
				ProvVertexJSON: vertexOf(v, vid),
			})
		}
		return out
	default:
		return ProvReadResult{Err: ErrInvalidRequest}
	}
}

// handleProvRead is POST /v1/prov/read: batched partition reads
// against one pinned snapshot — the wire protocol a federating
// gateway resolves remote-shard walk steps with.
func (s *Server) handleProvRead(w http.ResponseWriter, r *http.Request) {
	var req ProvReadRequest
	if apiErr := DecodeJSON(w, r, &req); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	if len(req.Reads) == 0 {
		WriteErr(w, http.StatusBadRequest, ErrInvalidRequest, "empty read batch")
		return
	}
	if len(req.Reads) > MaxProvReads {
		WriteErr(w, http.StatusBadRequest, ErrInvalidRequest,
			"%d reads exceed the maximum %d", len(req.Reads), MaxProvReads)
		return
	}
	snap, apiErr := s.snapshotAt(req.Version)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	results := snap.ProvRead(req.Reads)
	s.provReads.Add(int64(len(req.Reads)))
	WriteJSON(w, http.StatusOK, ProvReadResponse{Version: snap.Version, Results: results})
}

// ShardJSON is the "shard" object of GET /v1/shards and /v1/healthz.
type ShardJSON struct {
	Index int `json:"index"`
	Total int `json:"total"`
}

// ShardsJSON is GET /v1/shards: which slice of the deployment this
// server holds, pinned to one snapshot version. Node→shard routing is
// positional — node k of the sorted allNodes list belongs to shard
// k mod total — so this one response is enough to route every node.
type ShardsJSON struct {
	Version uint64 `json:"version"`
	// Time is the snapshot's virtual instant in microseconds —
	// identical on every shard of a deterministic run at the same
	// version, which is how a gateway timestamps federated answers.
	Time int64 `json:"virtualTimeUs"`
	// Shard is this server's slice ({0, 1} when unsharded).
	Shard ShardJSON `json:"shard"`
	// Nodes are the node addresses this server owns, sorted.
	Nodes []string `json:"nodes"`
	// AllNodes are all node addresses of the network, sorted.
	AllNodes []string `json:"allNodes"`
}

// handleShards is GET /v1/shards: the routing-table face of a shard
// (or of an unsharded daemon, which reports itself as shard 0 of 1).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	snap, done := s.condGET(w, r)
	if done {
		return
	}
	shard := ShardJSON{Index: snap.Shard.Index, Total: snap.Shard.Total}
	if snap.Shard.Unsharded() {
		shard = ShardJSON{Index: 0, Total: 1}
	}
	WriteJSON(w, http.StatusOK, ShardsJSON{
		Version:  snap.Version,
		Time:     int64(snap.Time),
		Shard:    shard,
		Nodes:    snap.Nodes,
		AllNodes: snap.AllNodes,
	})
}

// ProvReads reports how many prov-read ops this server has answered —
// the observable downstream-activity counter the cross-shard
// cancellation tests watch.
func (s *Server) ProvReads() int64 { return s.provReads.Load() }
