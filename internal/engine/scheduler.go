// Epoch scheduler: the engine's only drain loop. The simulated network
// synchronizes protocol traffic into waves — after a topology change,
// every node's deltas land at the same virtual instants — so the
// scheduler drains the event queue epoch by epoch (simnet.NextEpoch),
// executing each instant's events inline on the calling goroutine in a
// canonical, cluster-stable order.
//
// Within an epoch:
//
//   - Delta runs: maximal runs of tuple-delta deliveries execute with
//     send capture on. Outbound sends are buffered in emission order
//     and enqueued once the run finishes, coalescing consecutive
//     deltas bound for the same src→dst link into one DeltaBatch
//     message. Every destination still observes its deltas in
//     emission order; only the message count drops.
//   - Serial events: timers and service messages (provenance queries,
//     snapshots, BGP control traffic) execute between delta runs in
//     canonical order, their sends going straight to the network.
//
// After each fully-delivered epoch the engine state is a consistent cut
// of the execution, which is when epoch observers run.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/simnet"
)

// netSend routes an outbound message: straight onto the network, or
// into the engine's capture buffer while a delta run executes (the
// scheduler coalesces and enqueues it when the run finishes).
func (n *Node) netSend(m simnet.Message) {
	e := n.eng
	if e.capturing {
		e.captured = append(e.captured, m)
		return
	}
	e.Net.Send(m)
}

// runEpochs drains the network epoch by epoch. It is the body of
// RunQuiescent.
func (e *Engine) runEpochs() {
	e.draining = true
	defer func() { e.draining = false }()
	if e.cluster != nil {
		e.clusterDrain()
		return
	}
	for {
		ep, ok := e.Net.NextEpoch()
		if !ok {
			// Fire once more at quiescence: a drain may find zero
			// pending events even though the caller mutated state right
			// before RunQuiescent (e.g. a fact whose derivations stay
			// local). Observers dedup unchanged state themselves, so
			// the extra call after a final epoch is free.
			if fn := e.epochObserver.Load(); fn != nil {
				(*fn)()
			}
			return
		}
		e.executeEpoch(ep.Events)
		// The epoch's events are fully delivered: global state is a
		// consistent cut of the execution at this virtual instant. Let
		// observers (snapshot publishers) see it before the next epoch
		// begins.
		if fn := e.epochObserver.Load(); fn != nil {
			(*fn)()
		}
	}
}

// executeEpoch canonicalizes and executes one virtual instant's events:
// maximal runs of delta deliveries execute with send capture, everything
// else (timers, service messages) executes with direct sends, all in
// canonical order.
func (e *Engine) executeEpoch(events []simnet.EpochEvent) {
	canonicalize(events)
	for len(events) > 0 {
		j := 0
		if isDelta(events[0]) {
			for j < len(events) && isDelta(events[j]) {
				j++
			}
			e.deliverDeltas(events[:j])
		} else {
			for j < len(events) && !isDelta(events[j]) {
				if ev := events[j]; ev.Msg != nil {
					e.Net.Deliver(ev.Msg)
				} else {
					ev.Fn()
				}
				j++
			}
		}
		events = events[j:]
	}
}

// canonicalize sorts one epoch's events into the cluster-stable order
// and renumbers Seq to the canonical rank. Raw schedule sequence
// numbers are process-local: a distributed engine mints fresh ones when
// it injects remote deltas, so two processes never agree on absolute
// seqs. They do agree on everything the canonical key uses — the
// category of an event, its endpoints, and the relative seq order
// within one (From, To, Kind) stream (messages of a stream are emitted
// by exactly one process, in a replicated order). The order is:
//
//  1. timers/callbacks, by schedule order (they exist only in the
//     owning process and fire before the instant's deliveries);
//  2. message deliveries, destination-major by (To, From, Kind, Seq),
//     so one node's deliveries — and therefore its captured sends —
//     form a contiguous block, which keeps per-link coalescing
//     identical whether the epoch executes in one process or three.
func canonicalize(events []simnet.EpochEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if (a.Msg == nil) != (b.Msg == nil) {
			return a.Msg == nil
		}
		if a.Msg == nil {
			return a.Seq < b.Seq
		}
		if a.Msg.To != b.Msg.To {
			return a.Msg.To < b.Msg.To
		}
		if a.Msg.From != b.Msg.From {
			return a.Msg.From < b.Msg.From
		}
		if a.Msg.Kind != b.Msg.Kind {
			return a.Msg.Kind < b.Msg.Kind
		}
		return a.Seq < b.Seq
	})
	for i := range events {
		events[i].Seq = uint64(i)
	}
}

// isDelta reports whether an epoch event is a tuple-delta delivery:
// the only events whose sends are captured and coalesced.
func isDelta(ev simnet.EpochEvent) bool {
	return ev.Msg != nil && ev.Msg.Kind == KindDelta
}

// deliverDeltas executes one run of delta deliveries in canonical order
// with send capture on, then enqueues the captured sends. Canonical
// order is destination-major, so each delivering node's sends form one
// contiguous block of the buffer.
func (e *Engine) deliverDeltas(run []simnet.EpochEvent) {
	e.capturing = true
	defer func() {
		e.capturing = false
		e.captured = e.captured[:0]
	}()
	for _, ev := range run {
		e.Net.Deliver(ev.Msg)
	}
	e.capturing = false
	e.enqueueCoalesced(e.captured)
}

// enqueueCoalesced sends a delta run's captured sends, coalescing
// maximal consecutive runs bound for the same src→dst link into one
// DeltaBatch message. Because only consecutive sends merge, every
// destination still observes its deltas in emission order; the batch
// merely rides as one wire message (its size is the sum of its members,
// so byte accounting is preserved — message counts drop, which is the
// point).
func (e *Engine) enqueueCoalesced(sends []simnet.Message) {
	for i := 0; i < len(sends); {
		j := i + 1
		for j < len(sends) &&
			sends[j].From == sends[i].From &&
			sends[j].To == sends[i].To {
			j++
		}
		if j-i == 1 {
			e.Net.Send(sends[i])
			i = j
			continue
		}
		batch := DeltaBatch{Msgs: make([]DeltaMsg, 0, j-i)}
		size := 0
		for _, m := range sends[i:j] {
			dm, ok := m.Payload.(DeltaMsg)
			if !ok {
				panic(fmt.Sprintf("engine: captured non-delta payload %T on delta path", m.Payload))
			}
			batch.Msgs = append(batch.Msgs, dm)
			size += m.Size
		}
		e.Net.Send(simnet.Message{
			From:     sends[i].From,
			To:       sends[i].To,
			Kind:     KindDelta,
			Reliable: true,
			Payload:  batch,
			Size:     size,
		})
		i = j
	}
}
