// Determinism and correctness tests for the epoch scheduler. They live
// in the external test package so they can reuse the demo protocols and
// topology generators (protocols imports engine).
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/rel"
	"repro/internal/simnet"
)

func tupleAddr2(relName, a, b string) rel.Tuple {
	return rel.NewTuple(relName, rel.Addr(a), rel.Addr(b))
}

func newSchedEngine(t testing.TB, program string, n int) *engine.Engine {
	t.Helper()
	eng, err := engine.New(program, protocols.NodeNames(n), engine.Options{
		Seed:        7,
		LinkLatency: simnet.Millisecond,
		Provenance:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// buildConverged runs a protocol to convergence on a topology through
// RunQuiescent, optionally exercising churn (a link failure and repair
// mid-run, the paper's Figure 3 scenario).
func buildConverged(t testing.TB, program string, n int, edges []protocols.Edge, churn bool) *engine.Engine {
	t.Helper()
	eng := newSchedEngine(t, program, n)
	for _, e := range edges {
		if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
			t.Fatal(err)
		}
	}
	if churn {
		mid := edges[len(edges)/2]
		if err := eng.RemoveBiLink(mid.A, mid.B, mid.Cost); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddBiLink(mid.A, mid.B, mid.Cost); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunQuiescent()
	return eng
}

// buildReference drives the same script as buildConverged without the
// epoch scheduler: node-level fact changes, direct simnet link edits,
// and the plain discrete-event loop (Net.Run) after every step. It
// sends one message per delta, with no coalescing.
func buildReference(t testing.TB, program string, n int, edges []protocols.Edge, churn bool) *engine.Engine {
	t.Helper()
	eng := newSchedEngine(t, program, n)
	link := func(insert bool, a, b string, cost int64) {
		node, _ := eng.Node(a)
		tup := rel.NewTuple("link", rel.Addr(a), rel.Addr(b), rel.Int(cost))
		var err error
		if insert {
			err = node.InsertFact(tup)
		} else {
			err = node.DeleteFact(tup)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Net.Run(0)
	}
	up := func(e protocols.Edge) {
		if _, err := eng.Net.Connect(e.A, e.B, simnet.Millisecond); err != nil {
			t.Fatal(err)
		}
		link(true, e.A, e.B, e.Cost)
		link(true, e.B, e.A, e.Cost)
	}
	for _, e := range edges {
		up(e)
	}
	if churn {
		mid := edges[len(edges)/2]
		link(false, mid.A, mid.B, mid.Cost)
		link(false, mid.B, mid.A, mid.Cost)
		eng.Net.SetLinkUp(mid.A, mid.B, false)
		up(mid)
	}
	eng.Net.Run(0)
	return eng
}

// fingerprint renders every node's full table state plus its
// provenance-partition digest, keyed by node address.
func fingerprint(t testing.TB, e *engine.Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, addr := range e.Nodes() {
		n, ok := e.Node(addr)
		if !ok {
			t.Fatalf("missing node %s", addr)
		}
		var sb strings.Builder
		for _, tup := range n.RT.Store.Snapshot() {
			sb.WriteString(tup.String())
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "prov-digest:%v\n", n.Prov.Digest())
		out[addr] = sb.String()
	}
	return out
}

func requireIdentical(t *testing.T, ref, got *engine.Engine) {
	t.Helper()
	rf, gf := fingerprint(t, ref), fingerprint(t, got)
	if len(rf) != len(gf) {
		t.Fatalf("node sets differ: %d vs %d", len(rf), len(gf))
	}
	for addr, want := range rf {
		if g := gf[addr]; g != want {
			t.Errorf("node %s diverged from the reference run:\nreference:\n%s\nscheduled:\n%s", addr, want, g)
		}
	}
}

// schedCases are the protocol/topology/churn scripts the scheduler
// tests replay through both RunQuiescent and the reference loop.
var schedCases = []struct {
	name    string
	program string
	n       int
	edges   []protocols.Edge
	churn   bool
}{
	{"mincost-grid16", protocols.MinCost, 16, protocols.GridTopology(4, 4, 1), false},
	{"mincost-grid16-churn", protocols.MinCost, 16, protocols.GridTopology(4, 4, 1), true},
	{"pathvector-ring8", protocols.PathVector, 8, protocols.RingTopology(8, 1), false},
	{"pathvector-ring8-churn", protocols.PathVector, 8, protocols.RingTopology(8, 1), true},
	{"distvector-line8", protocols.DistanceVector, 8, protocols.LineTopology(8, 1), false},
}

// TestParallelDeterminism is the determinism regression of the epoch
// scheduler: a script drained through RunQuiescent must end in exactly
// the per-node snapshots and provenance-store contents of the same
// script driven through the plain discrete-event loop, across
// protocols, topologies, and churn.
func TestParallelDeterminism(t *testing.T) {
	for _, tc := range schedCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := buildReference(t, tc.program, tc.n, tc.edges, tc.churn)
			got := buildConverged(t, tc.program, tc.n, tc.edges, tc.churn)
			requireIdentical(t, ref, got)
		})
	}
}

// TestParallelCoalescingReducesMessages verifies the per-link
// coalescing actually batches wire messages: every scheduled run must
// complete with fewer delta messages than the one-message-per-delta
// reference run while moving the same payload bytes.
func TestParallelCoalescingReducesMessages(t *testing.T) {
	for _, tc := range schedCases {
		ref := buildReference(t, tc.program, tc.n, tc.edges, tc.churn)
		got := buildConverged(t, tc.program, tc.n, tc.edges, tc.churn)
		rm, rb, _ := ref.Net.Totals()
		gm, gb, _ := got.Net.Totals()
		if gm >= rm {
			t.Errorf("%s: scheduled run sent %d messages, reference %d: coalescing should reduce the count", tc.name, gm, rm)
		}
		if gb != rb {
			t.Errorf("%s: payload bytes diverged: scheduled %d, reference %d", tc.name, gb, rb)
		}
	}
}

// TestReentrantRunQuiescentFromService covers re-entrant drains: a
// service handler that inserts a fact mid-drain triggers a nested
// RunQuiescent (Engine.InsertFact always quiesces), which defers to the
// active drain. The result must match a reference run whose handler
// only inserts the fact and leaves the events to the running loop.
func TestReentrantRunQuiescentFromService(t *testing.T) {
	poked := rel.NewTuple("link", rel.Addr("n3"), rel.Addr("n4"), rel.Int(1))
	build := func(reference bool) *engine.Engine {
		eng, err := engine.New(protocols.MinCost, protocols.NodeNames(4), engine.Options{
			Seed: 1, Provenance: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterService("poke", func(n *engine.Node, m simnet.Message) {
			if reference {
				n3, _ := n.Engine().Node("n3")
				err = n3.InsertFact(poked)
			} else {
				err = n.Engine().InsertFact(poked)
			}
			if err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		// Schedule a poke to land in the middle of the convergence
		// cascade the AddBiLink calls below kick off.
		eng.Net.After(simnet.Millisecond, func() {
			eng.Net.Send(simnet.Message{From: "n1", To: "n2", Kind: "poke", Reliable: true})
		})
		if err := eng.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddBiLink("n2", "n3", 1); err != nil {
			t.Fatal(err)
		}
		eng.RunQuiescent()
		return eng
	}
	ref, got := build(true), build(false)
	// The mid-drain insert must have taken effect…
	n3, _ := got.Node("n3")
	links, err := n3.Tuples("link")
	if err != nil || len(links) != 2 {
		t.Fatalf("links at n3 = %v (%v), want n3→n2 and n3→n4", links, err)
	}
	// …and the converged state must match the reference.
	requireIdentical(t, ref, got)
}

// TestParallelSoftStateExpiry drives a program with a finite-lifetime
// relation through the epoch scheduler: expiry timers execute between
// delta runs and must retract the tuple and everything derived from it.
func TestParallelSoftStateExpiry(t *testing.T) {
	src := `
materialize(ping, 2, infinity, keys(1,2)).
materialize(seen, infinity, infinity, keys(1,2)).
p1 seen(@D,S) :- ping(@S,D).
`
	eng, err := engine.New(src, []string{"n1", "n2"}, engine.Options{Seed: 1, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := eng.Node("n1")
	n2, _ := eng.Node("n2")
	if err := n1.InsertFact(tupleAddr2("ping", "n1", "n2")); err != nil {
		t.Fatal(err)
	}
	eng.RunQuiescent()
	// The ping tuple has a 2-second lifetime; after quiescence the
	// expiry timer has fired and retracted it, cascading across the
	// network to the derived seen tuple at n2.
	if ts, err := n1.Tuples("ping"); err != nil || len(ts) != 0 {
		t.Errorf("ping at n1 = %v (%v) after expiry, want empty", ts, err)
	}
	if ts, err := n2.Tuples("seen"); err != nil || len(ts) != 0 {
		t.Errorf("seen at n2 = %v (%v) after expiry, want empty", ts, err)
	}
}
