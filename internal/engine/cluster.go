// Distributed execution: N engine processes, each owning a slice of the
// simulated nodes, advance through the same virtual-time schedule in
// lockstep over a simnet.Transport.
//
// The partitioning model is replicate-control, partition-data. Every
// process builds the full engine (all nodes, the full topology) and
// replays the identical input script, so timers, topology changes, and
// service/control traffic (BGP updates, provenance queries) execute
// identically everywhere — they are cheap and keep every process's
// event schedule aligned without any coordination. Only tuple-delta
// traffic (KindDelta) is partitioned: a delta delivery executes solely
// in the process owning the destination node, and deltas bound for a
// remotely-owned node are intercepted at the send hook and shipped as
// epoch-stamped frames instead of entering the local queue.
//
// The cross-process epoch protocol is two Transport exchanges per
// round, each a barrier:
//
//	frames:  ship the deltas emitted by the last executed instant;
//	         owners inject them at their original virtual timestamps.
//	propose: every process offers its earliest pending timestamp and a
//	         "state changed since last cut" bit. The cut T is the
//	         minimum offer; the global change bit is the OR.
//
// After the propose barrier every process observes the same consistent
// cut — the previous instant is fully executed everywhere and all its
// deltas have been claimed — so the snapshot observer commits there,
// minting the same dense version sequence in every process. Then each
// process advances its clock to T and executes the instant if it owns
// events at T. Quiescence (no offers) ends the drain. Combined with the
// canonical intra-epoch event order (scheduler.go), this reproduces the
// single-process schedule exactly: same states, same provenance, same
// per-link coalescing, byte-identical snapshots.
package engine

import (
	"fmt"

	"repro/internal/simnet"
)

// DistObserver is the distributed counterpart of the epoch observer: a
// snapshot publisher split into a local scan and a cut-aligned commit.
// Probe reports whether any locally-owned node changed since the last
// Commit (sticky: repeated probes accumulate). Commit runs at a global
// cut with the OR of every process's probe bit; it must mint a version
// exactly when changed is true, even if nothing changed locally, so the
// version sequence stays dense and identical across processes.
type DistObserver interface {
	Probe() bool
	Commit(changed bool)
}

// ClusterStats counts distributed-drain work for benchmarking.
type ClusterStats struct {
	Rounds    uint64 // protocol rounds (two transport exchanges each)
	Epochs    uint64 // global virtual instants agreed and advanced to
	FramesOut uint64 // delta frames shipped to peers
	FramesIn  uint64 // delta frames claimed from peers
	BytesOut  uint64 // encoded frame payload bytes broadcast
	BytesIn   uint64 // encoded frame payload bytes received
}

// ClusterError is the loud-failure wrapper for distributed-protocol
// faults: transport errors, undecodable frames, or a node set that
// changed after ownership was frozen. The drain panics with it rather
// than risking silent divergence between processes.
type ClusterError struct {
	Op  string
	Err error
}

func (e *ClusterError) Error() string { return fmt.Sprintf("engine cluster: %s: %v", e.Op, e.Err) }
func (e *ClusterError) Unwrap() error { return e.Err }

// Exchange phases within one protocol round.
const (
	phaseFrames  uint8 = 1
	phasePropose uint8 = 2
)

type cluster struct {
	tr    simnet.Transport
	self  int
	size  int
	owner map[string]int // node addr -> owning member rank
	obs   DistObserver
	step  uint64
	// outbox accumulates remotely-owned deltas intercepted by the send
	// hook, in emission order, until the next frames exchange.
	outbox    []wireFrame
	nodeCount int
	stats     ClusterStats
}

func (c *cluster) nextStep() uint64 { c.step++; return c.step }

// EnableCluster switches the engine into distributed mode over tr.
// Node ownership is frozen at this call: the sorted node list is dealt
// round-robin across the tr.Size() members (the same rule as
// server.ShardOf, so a member's engine slice and its colocated shard
// publisher cover the same nodes). Call it after the engine is fully
// built and any pre-replay facts are loaded, and before attaching a
// snapshot publisher. Once enabled, facts inserted at nodes owned by a
// peer become local no-ops (the peer applies them), and tuple deltas
// addressed to a peer's nodes are shipped through tr during
// RunQuiescent instead of being delivered locally.
func (e *Engine) EnableCluster(tr simnet.Transport) error {
	if e.cluster != nil {
		return fmt.Errorf("engine: cluster already enabled")
	}
	size, self := tr.Size(), tr.Self()
	if size < 1 || self < 0 || self >= size {
		return fmt.Errorf("engine: bad transport shape self=%d size=%d", self, size)
	}
	c := &cluster{
		tr:        tr,
		self:      self,
		size:      size,
		owner:     make(map[string]int, len(e.nodes)),
		nodeCount: len(e.nodes),
	}
	for pos, addr := range e.Nodes() {
		c.owner[addr] = pos % size
	}
	e.cluster = c
	e.Net.SendHook = func(m simnet.Message, deliverAt simnet.Time) bool {
		if m.Kind != KindDelta || e.Owns(m.To) {
			return false
		}
		c.outbox = append(c.outbox, wireFrame{At: deliverAt, Msg: m})
		return true
	}
	return nil
}

// Clustered reports whether the engine runs in distributed mode.
func (e *Engine) Clustered() bool { return e.cluster != nil }

// Owns reports whether this process owns the named node. Every node is
// owned when the engine is not clustered.
func (e *Engine) Owns(addr string) bool {
	if e.cluster == nil {
		return true
	}
	r, ok := e.cluster.owner[addr]
	return ok && r == e.cluster.self
}

// SetDistObserver installs the distributed snapshot observer (nil
// detaches). Unlike SetEpochObserver it is only read by the drain
// itself; install it before the first clustered drain.
func (e *Engine) SetDistObserver(o DistObserver) {
	if e.cluster == nil {
		panic("engine: SetDistObserver on non-clustered engine")
	}
	e.cluster.obs = o
}

// ClusterStats returns a copy of the distributed-drain counters.
func (e *Engine) ClusterStats() ClusterStats {
	if e.cluster == nil {
		return ClusterStats{}
	}
	return e.cluster.stats
}

// clusterDrain is the distributed RunQuiescent: the round protocol
// described in the package comment above. Transport failures and
// undecodable peer data panic with *ClusterError — a distributed drain
// that cannot complete must fail loudly, never return a half-advanced
// engine.
func (e *Engine) clusterDrain() {
	c := e.cluster
	if len(e.nodes) != c.nodeCount {
		panic(&ClusterError{Op: "drain", Err: fmt.Errorf("node set changed after EnableCluster (%d -> %d)", c.nodeCount, len(e.nodes))})
	}
	for r := 0; ; r++ {
		c.stats.Rounds++
		out := c.outbox
		c.outbox = nil
		payload := encodeFrames(out)
		c.stats.FramesOut += uint64(len(out))
		c.stats.BytesOut += uint64(len(payload))
		reps, err := c.tr.Exchange(c.nextStep(), phaseFrames, payload)
		if err != nil {
			panic(&ClusterError{Op: "frames exchange", Err: err})
		}
		// Claim remote deltas addressed to locally-owned nodes, in
		// member-rank order so injected schedule sequence numbers are
		// deterministic per process.
		for rank := 0; rank < c.size; rank++ {
			if rank == c.self || len(reps[rank]) == 0 {
				continue
			}
			c.stats.BytesIn += uint64(len(reps[rank]))
			frames, err := decodeFrames(reps[rank])
			if err != nil {
				panic(&ClusterError{Op: fmt.Sprintf("decode frames from member %d", rank), Err: err})
			}
			for _, f := range frames {
				if !e.Owns(f.Msg.To) {
					continue
				}
				c.stats.FramesIn++
				e.Net.InjectAt(f.At, f.Msg)
			}
		}
		next, hasNext := e.Net.PeekTime()
		changed := false
		if c.obs != nil {
			changed = c.obs.Probe()
		}
		preps, err := c.tr.Exchange(c.nextStep(), phasePropose, encodePropose(next, hasNext, changed))
		if err != nil {
			panic(&ClusterError{Op: "propose exchange", Err: err})
		}
		cut, haveCut := next, hasNext
		for rank := 0; rank < c.size; rank++ {
			if rank == c.self {
				continue
			}
			pn, ph, pc, err := decodePropose(preps[rank])
			if err != nil {
				panic(&ClusterError{Op: fmt.Sprintf("decode propose from member %d", rank), Err: err})
			}
			changed = changed || pc
			if ph && (!haveCut || pn < cut) {
				cut, haveCut = pn, true
			}
		}
		// The previous instant (or, at r == 0, the caller's pre-drain
		// mutations when the drain turns out to be empty) is a global
		// consistent cut here. Round 0 with pending events commits
		// nothing: the single-process schedule also observes its first
		// cut only after the first instant executes.
		if (r > 0 || !haveCut) && c.obs != nil {
			c.obs.Commit(changed)
		}
		if !haveCut {
			return
		}
		c.stats.Epochs++
		e.Net.AdvanceTo(cut)
		if hasNext && next == cut {
			if ep, ok := e.Net.NextEpoch(); ok {
				e.executeEpoch(ep.Events)
			}
		}
	}
}
