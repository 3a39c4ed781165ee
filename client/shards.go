package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strconv"
)

// This file is the SDK's sharding surface. A NetTrails deployment may
// split the network's provenance partitions across several nettrailsd
// shards (nettrailsd -shard i/N); each shard answers GET /v1/shards
// with its slice and the full sorted node list, and node→shard
// routing is positional (node k of allNodes belongs to shard
// k mod total). DiscoverShards turns a list of shard base URLs into a
// ShardSet with that routing table; ForNode gives per-node shard
// affinity for partition-local calls (State, prov reads), while
// cross-shard queries belong on a gateway (cmd/nettrailsgw).

// ShardInfo identifies one shard's slice of a deployment: shard Index
// of Total. An unsharded daemon reports {0, 1}.
type ShardInfo struct {
	Index int `json:"index"`
	Total int `json:"total"`
}

// Shards is GET /v1/shards: the server's slice of the deployment and
// the node lists a routing table is built from, pinned to one
// snapshot version.
type Shards struct {
	Version uint64 `json:"version"`
	// TimeUs is the snapshot's virtual instant in microseconds.
	TimeUs int64 `json:"virtualTimeUs"`
	// Shard is the answering server's slice.
	Shard ShardInfo `json:"shard"`
	// Nodes are the node addresses this server owns, sorted.
	Nodes []string `json:"nodes"`
	// AllNodes are all node addresses of the network, sorted.
	AllNodes []string `json:"allNodes"`
}

// Shards fetches the server's shard descriptor (GET /v1/shards).
func (c *Client) Shards(ctx context.Context, opts ...CallOption) (*Shards, error) {
	o := applyCallOpts(opts)
	p := url.Values{}
	if v := c.resolveVersion(o); v > 0 {
		p.Set("version", strconv.FormatUint(v, 10))
	}
	var out Shards
	if _, err := c.do(ctx, "GET", c.url("/v1/shards", p), nil, &out); err != nil {
		return nil, err
	}
	c.observe(out.Version)
	return &out, nil
}

// Prov-read op kinds (POST /v1/prov/read): "vertex" resolves one
// tuple VID at a node, "exec" resolves one rule execution RID where
// it ran (with every input tuple's vertex data piggybacked).
const (
	ProvReadVertex = "vertex"
	ProvReadExec   = "exec"
)

// ProvReadOp is one partition read of a POST /v1/prov/read batch.
type ProvReadOp struct {
	// Op is ProvReadVertex or ProvReadExec.
	Op string `json:"op"`
	// Loc is the node address whose partition is read.
	Loc string `json:"loc"`
	// ID is the full 40-hex-digit VID (vertex) or RID (exec).
	ID string `json:"id"`
}

// ProvDeriv is one derivation entry of a vertex: the rule execution
// that derived it and where it ran; both fields are empty for a
// base-tuple derivation.
type ProvDeriv struct {
	RID  string `json:"rid,omitempty"`
	RLoc string `json:"rloc,omitempty"`
}

// ProvExec is one rule execution: the rule name and its input tuples'
// VIDs (all local to the executing node).
type ProvExec struct {
	Rule string   `json:"rule"`
	VIDs []string `json:"vids"`
}

// ProvVertex is one tuple vertex as the read protocol ships it: the
// canonical binary tuple encoding and the derivation entries, with
// TupleOK/DerivsOK mirroring the two independent partition lookups.
type ProvVertex struct {
	TupleOK  bool        `json:"tupleOk,omitempty"`
	Tuple    []byte      `json:"tuple,omitempty"`
	DerivsOK bool        `json:"derivsOk,omitempty"`
	Derivs   []ProvDeriv `json:"derivs,omitempty"`
}

// ProvInput is the piggybacked vertex data of one exec input.
type ProvInput struct {
	VID string `json:"vid"`
	ProvVertex
}

// ProvReadResult answers one ProvReadOp. Err is a stable error code
// when the op was misdirected ("wrong_shard") or malformed; data that
// is merely absent shows as TupleOK/DerivsOK/ExecOK false.
type ProvReadResult struct {
	Err string `json:"error,omitempty"`
	ProvVertex
	ExecOK bool        `json:"execOk,omitempty"`
	Exec   *ProvExec   `json:"exec,omitempty"`
	Inputs []ProvInput `json:"inputs,omitempty"`
}

// ProvReads is POST /v1/prov/read: one result per read, in order, all
// resolved against the one pinned snapshot version.
type ProvReads struct {
	Version uint64           `json:"version"`
	Results []ProvReadResult `json:"results"`
}

// ProvRead issues a batch of partition reads against the snapshot
// pinned to version (0 means current). This is the shard-federation
// protocol the gateway traverses cross-shard provenance with; most
// applications want the query endpoints instead.
func (c *Client) ProvRead(ctx context.Context, version uint64, reads []ProvReadOp) (*ProvReads, error) {
	body, err := json.Marshal(struct {
		Version uint64       `json:"version,omitempty"`
		Reads   []ProvReadOp `json:"reads"`
	}{Version: version, Reads: reads})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var out ProvReads
	if _, err := c.do(ctx, "POST", c.url("/v1/prov/read", nil), body, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(reads) {
		return nil, fmt.Errorf("client: prov read answered %d results for %d reads", len(out.Results), len(reads))
	}
	c.observe(out.Version)
	return &out, nil
}

// ShardSet is a discovered sharded deployment: one Client per shard
// plus the node→shard routing table. It is immutable after
// DiscoverShards and safe for concurrent use.
type ShardSet struct {
	clients  []*Client // indexed by shard index
	allNodes []string  // sorted
	owner    map[string]int
}

// DiscoverShards contacts every shard base URL, validates that the
// answers describe one coherent deployment (every index 0..N-1 present
// exactly once, identical node lists), and returns the routing table.
// The opts are applied to each per-shard Client.
func DiscoverShards(ctx context.Context, urls []string, opts ...Option) (*ShardSet, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("client: no shard URLs")
	}
	set := &ShardSet{
		clients: make([]*Client, len(urls)),
		owner:   map[string]int{},
	}
	for _, u := range urls {
		c, err := New(u, opts...)
		if err != nil {
			return nil, err
		}
		sh, err := c.Shards(ctx)
		if err != nil {
			return nil, fmt.Errorf("client: shard discovery at %s: %w", u, err)
		}
		if sh.Shard.Total != len(urls) {
			return nil, fmt.Errorf("client: %s reports %d shards, %d URLs given", u, sh.Shard.Total, len(urls))
		}
		if sh.Shard.Index < 0 || sh.Shard.Index >= len(urls) {
			return nil, fmt.Errorf("client: %s reports shard index %d of %d", u, sh.Shard.Index, sh.Shard.Total)
		}
		if set.clients[sh.Shard.Index] != nil {
			return nil, fmt.Errorf("client: two URLs claim shard %d/%d", sh.Shard.Index, sh.Shard.Total)
		}
		if !sort.StringsAreSorted(sh.AllNodes) {
			return nil, fmt.Errorf("client: %s reports an unsorted node list", u)
		}
		if set.allNodes == nil {
			set.allNodes = sh.AllNodes
		} else if !slices.Equal(set.allNodes, sh.AllNodes) {
			return nil, fmt.Errorf("client: %s disagrees about the network's node list", u)
		}
		set.clients[sh.Shard.Index] = c
	}
	for i, addr := range set.allNodes {
		set.owner[addr] = i % len(urls)
	}
	return set, nil
}

// Shard returns the client for shard index i.
func (s *ShardSet) Shard(i int) *Client { return s.clients[i] }

// Len returns how many shards the set holds.
func (s *ShardSet) Len() int { return len(s.clients) }

// Nodes returns every node address of the network, sorted.
func (s *ShardSet) Nodes() []string { return s.allNodes }

// OwnerOf returns which shard index owns the node; ok is false for
// unknown nodes.
func (s *ShardSet) OwnerOf(addr string) (int, bool) {
	i, ok := s.owner[addr]
	return i, ok
}

// ForNode returns the client of the shard owning the node — shard
// affinity for partition-local calls like State. ok is false for
// unknown nodes.
func (s *ShardSet) ForNode(addr string) (*Client, bool) {
	i, ok := s.owner[addr]
	if !ok {
		return nil, false
	}
	return s.clients[i], true
}
