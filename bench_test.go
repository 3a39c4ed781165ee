// Benchmark harness: one benchmark (family) per experiment in
// EXPERIMENTS.md / DESIGN.md §3. The SIGMOD'11 paper is a demonstration
// paper, so the "figures" are demo scenarios; each benchmark regenerates
// the corresponding scenario and reports the metrics the demo shows
// (convergence traffic, provenance maintenance overhead, query traffic
// with and without optimizations, scaling).
package nettrails_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	nettrails "repro"
	"repro/client"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/routeviews"
	"repro/internal/scenario"
	"repro/internal/server"
)

func mustSystem(b *testing.B, program string, n int, edges []protocols.Edge) *nettrails.System {
	b.Helper()
	sys, err := nettrails.NewSystem(program, nettrails.NodeNames(n))
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range edges {
		if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

func diamond() []protocols.Edge {
	return []protocols.Edge{
		{A: "n1", B: "n2", Cost: 1}, {A: "n1", B: "n3", Cost: 1},
		{A: "n2", B: "n4", Cost: 1}, {A: "n3", B: "n4", Cost: 1},
	}
}

// BenchmarkFig2ProvenanceRender (E2): build MINCOST provenance on the
// diamond and render the Figure 2 exploration (proof tree + tuple card).
func BenchmarkFig2ProvenanceRender(b *testing.B) {
	sys := mustSystem(b, nettrails.MinCost, 4, diamond())
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n4"), nettrails.Int(2))
	res, err := sys.Lineage("n1", mc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nettrails.RenderProof(res.Root)
		_ = nettrails.RenderTupleCard(mc, "n1")
	}
}

// BenchmarkDemo1Maintenance* (E3): incremental maintenance cost of one
// topology change (link removal + re-insertion) after convergence, for
// each declarative protocol of demo use case 1.
func benchMaintenance(b *testing.B, program string) {
	sys := mustSystem(b, program, 6, protocols.RingTopology(6, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.RemoveLink("n2", "n3", 1); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddLink("n2", "n3", 1); err != nil {
			b.Fatal(err)
		}
	}
	msgs, bytes, _ := sys.Engine.Net.Totals()
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

func BenchmarkDemo1MaintenanceMincost(b *testing.B)    { benchMaintenance(b, nettrails.MinCost) }
func BenchmarkDemo1MaintenancePathVector(b *testing.B) { benchMaintenance(b, nettrails.PathVector) }
func BenchmarkDemo1MaintenanceDSR(b *testing.B)        { benchMaintenance(b, nettrails.DSR) }
func BenchmarkDemo1MaintenanceDistVector(b *testing.B) {
	benchMaintenance(b, nettrails.DistanceVector)
}

// BenchmarkDemo2BGPProvenance (E4): legacy-application provenance
// capture: replay RouteViews-style announce/withdraw events through the
// proxied BGP deployment.
func BenchmarkDemo2BGPProvenance(b *testing.B) {
	d, err := nettrails.NewBGPDeployment(
		[]string{"AS1", "AS2", "AS3", "AS4", "AS5"},
		[]nettrails.ASLink{
			{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
			{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
			{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
			{A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
			{A: "AS4", B: "AS5", Rel: nettrails.CustomerOf},
		})
	if err != nil {
		b.Fatal(err)
	}
	events, err := d.GenerateTrace(200, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		var err error
		if ev.Type == 0 {
			err = d.Originate(ev.Origin, ev.Prefix)
		} else {
			// Replaying out of order can withdraw a dead prefix; the
			// speaker treats that as a no-op, which is fine for
			// throughput measurement.
			err = d.Withdraw(ev.Origin, ev.Prefix)
		}
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	b.ReportMetric(float64(done), "events")
}

// BenchmarkQuery* (E5): the three demo query types plus full lineage,
// over a 6-node line (5-hop derivation chains).
func benchQuery(b *testing.B, typ provquery.QueryType) {
	sys := mustSystem(b, nettrails.MinCost, 6, protocols.LineTopology(6, 1))
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n6"), nettrails.Int(5))
	var msgs, bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query.Query(typ, "n1", mc, provquery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.Messages
		bytes += res.Stats.Bytes
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

func BenchmarkQueryLineage(b *testing.B)    { benchQuery(b, provquery.Lineage) }
func BenchmarkQueryBaseTuples(b *testing.B) { benchQuery(b, provquery.BaseTuples) }
func BenchmarkQueryNodes(b *testing.B)      { benchQuery(b, provquery.Nodes) }
func BenchmarkQueryDerivCount(b *testing.B) { benchQuery(b, provquery.DerivCount) }

// BenchmarkQueryOpt* (E6): the optimization study — caching and
// threshold pruning reduce query traffic (the demo's closing claim).
func benchQueryOpt(b *testing.B, opts provquery.Options) {
	// A wider diamond stack gives multiple alternative derivations so
	// pruning has something to cut.
	edges := []protocols.Edge{
		{A: "n1", B: "n2", Cost: 1}, {A: "n1", B: "n3", Cost: 1},
		{A: "n2", B: "n4", Cost: 1}, {A: "n3", B: "n4", Cost: 1},
		{A: "n4", B: "n5", Cost: 1}, {A: "n4", B: "n6", Cost: 1},
		{A: "n5", B: "n7", Cost: 1}, {A: "n6", B: "n7", Cost: 1},
	}
	sys := mustSystem(b, nettrails.MinCost, 7, edges)
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n7"), nettrails.Int(4))
	var msgs, bytes, hits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query.Query(provquery.BaseTuples, "n1", mc, opts)
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.Messages
		bytes += res.Stats.Bytes
		hits += res.Stats.CacheHits
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
	b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
}

func BenchmarkQueryOptNone(b *testing.B) { benchQueryOpt(b, provquery.Options{}) }
func BenchmarkQueryOptCache(b *testing.B) {
	benchQueryOpt(b, provquery.Options{UseCache: true})
}
func BenchmarkQueryOptPrune(b *testing.B) {
	benchQueryOpt(b, provquery.Options{Threshold: 1})
}
func BenchmarkQueryOptCachePrune(b *testing.B) {
	benchQueryOpt(b, provquery.Options{UseCache: true, Threshold: 1})
}
func BenchmarkQueryOptSequential(b *testing.B) {
	benchQueryOpt(b, provquery.Options{Sequential: true})
}

// BenchmarkScalingMaintenance (E7): full convergence of MINCOST on
// square grids of growing size; reports provenance maintenance overhead
// (prov entries, delta traffic) per network size.
func BenchmarkScalingMaintenance(b *testing.B) {
	for _, side := range []int{2, 3, 4, 5, 6} {
		n := side * side
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var msgs, bytes, prov int
			for i := 0; i < b.N; i++ {
				sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
				m, by, _ := sys.Engine.Net.Totals()
				msgs += m
				bytes += by
				for _, addr := range sys.Engine.Nodes() {
					nd, _ := sys.Engine.Node(addr)
					prov += nd.Prov.Statistics().ProvEntries
				}
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(prov)/float64(b.N), "proventries")
		})
	}
}

// BenchmarkScalingQuery (E7): lineage query latency/traffic vs. network
// size (corner-to-corner tuple on the grid).
func BenchmarkScalingQuery(b *testing.B) {
	for _, side := range []int{2, 3, 4, 5, 6} {
		n := side * side
		sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
		dist := int64(2 * (side - 1))
		mc := nettrails.Tuple("mincost",
			nettrails.Addr("n1"), nettrails.Addr(protocols.NodeName(n)), nettrails.Int(dist))
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				res, err := sys.Lineage("n1", mc)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkCascadeDeletion (E8): the cascading-effect analysis — delete
// a well-connected link after convergence and measure the provenance
// update cascade.
func BenchmarkCascadeDeletion(b *testing.B) {
	side := 4
	n := side * side
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
		sys.Engine.Net.ResetTraffic()
		b.StartTimer()
		if err := sys.RemoveLink("n6", "n7", 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		msgs, _, _ := sys.Engine.Net.Totals()
		b.ReportMetric(float64(msgs), "cascade_msgs")
		b.StartTimer()
	}
}

// BenchmarkAblationProvenance{Off,On} (design-choice ablation from
// DESIGN.md): the cost of ExSPAN maintenance itself — full MINCOST
// convergence on a 4x4 grid with provenance tracking disabled vs.
// enabled. ExSPAN's claim is that maintenance is a modest constant
// factor on execution.
func benchAblation(b *testing.B, provenance bool) {
	side := 4
	n := side * side
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(nettrails.MinCost, nettrails.NodeNames(n), engine.Options{
			Seed: 1, Provenance: provenance,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range protocols.GridTopology(side, side, 1) {
			if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunQuiescent()
	}
}

func BenchmarkAblationProvenanceOff(b *testing.B) { benchAblation(b, false) }
func BenchmarkAblationProvenanceOn(b *testing.B)  { benchAblation(b, true) }

// BenchmarkServeQueries (E10): the query-serving workload — N
// concurrent HTTP clients issuing provenance queries against a live
// 8-AS BGP deployment whose simulation thread keeps replaying a
// RouteViews-style trace. Epoch-snapshot isolation means the clients
// read frozen versioned views: the simulation never waits for a
// reader and every request sees one consistent virtual instant.
// Reported versions/op > 0 confirms the simulation really advanced
// while clients were querying.
func BenchmarkServeQueries(b *testing.B) {
	ases := make([]string, 8)
	for i := range ases {
		ases[i] = fmt.Sprintf("AS%d", i+1)
	}
	links := []nettrails.ASLink{
		{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
		{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
		{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
		{A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
		{A: "AS4", B: "AS6", Rel: nettrails.CustomerOf},
		{A: "AS5", B: "AS7", Rel: nettrails.CustomerOf},
		{A: "AS6", B: "AS8", Rel: nettrails.CustomerOf},
		{A: "AS7", B: "AS8", Rel: nettrails.PeerOf},
	}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d, err := nettrails.NewBGPDeployment(ases, links, nettrails.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// A sentinel prefix outside the generated trace's 10.x pool:
			// it is never withdrawn, so the queried tuple exists in every
			// published snapshot.
			if err := d.Originate("AS1", "192.0.2.0/24"); err != nil {
				b.Fatal(err)
			}
			events, err := d.GenerateTrace(60, 1)
			if err != nil {
				b.Fatal(err)
			}
			pub, err := server.NewPublisher(d.Eng, server.DefaultRetain)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "bgp"}))
			defer ts.Close()

			// The simulation thread: replay the trace in a loop until the
			// clients are done. Every quiescence publishes snapshots.
			stop := make(chan struct{})
			simDone := make(chan struct{})
			go func() {
				defer close(simDone)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ev := events[i%len(events)]
					if ev.Type == 0 {
						err = d.Originate(ev.Origin, ev.Prefix)
					} else {
						err = d.Withdraw(ev.Origin, ev.Prefix)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()

			startVersion := pub.Current().Version
			const query = `{"q":"lineage of routeEntry(@'AS1',\"192.0.2.0/24\")"}`
			var failures atomic.Int64
			// Exactly `clients` concurrent client goroutines draining a
			// shared ticket counter (RunParallel would multiply the
			// level by GOMAXPROCS and mislabel the sweep).
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := ts.Client()
					for next.Add(1) <= int64(b.N) {
						resp, err := client.Post(ts.URL+"/v1/query", "application/json",
							strings.NewReader(query))
						if err != nil {
							failures.Add(1)
							continue
						}
						if resp.StatusCode != http.StatusOK {
							failures.Add(1)
						}
						resp.Body.Close()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			<-simDone
			if n := failures.Load(); n > 0 {
				b.Fatalf("%d/%d queries failed", n, b.N)
			}
			b.ReportMetric(float64(pub.Current().Version-startVersion)/float64(b.N), "versions/op")
		})
	}
}

// BenchmarkPublish (E14): the epoch-snapshot publish path itself. The
// persistent-table/incremental-view design makes publish cost O(delta)
// — proportional to the tuples that changed since the last epoch, not
// to the network's state or node count. The sweep measures exactly
// that: per-epoch publish time (churn excluded via StopTimer) for
// deltas of 1, 10, and 100 tuples, over two deployments whose state
// sizes differ by orders of magnitude:
//
//   - as8:    the 8-AS BGP deployment seeded by replaying its 200-event
//     RouteViews-style trace
//   - as1000: a generated 1000-AS internet-like topology (the
//     RouteViews-scale graph of the slow scenario suite)
//
// The acceptance claim is the delta=1 ratio between the two: with 125x
// the nodes, publish stays within a small constant (the residual is
// pass 1's per-node version probe — three pointer loads per node, no
// allocation). Each churned tuple is inserted and deleted before the
// timed publish, so state size stays fixed across iterations while the
// touched nodes' versions move.
func BenchmarkPublish(b *testing.B) {
	churn := func(b *testing.B, d *nettrails.BGPDeployment, ases []string, seq, k int) {
		b.Helper()
		for j := 0; j < k; j++ {
			as := ases[(seq+j)%len(ases)]
			t := nettrails.Tuple("inputRoute",
				nettrails.Addr(as), nettrails.Addr("bench"),
				nettrails.Str(fmt.Sprintf("198.51.%d.0/24", j%200)),
				nettrails.List(nettrails.Addr("bench")))
			if err := d.Eng.InsertFact(t); err != nil {
				b.Fatal(err)
			}
			if err := d.Eng.DeleteFact(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep := func(b *testing.B, d *nettrails.BGPDeployment, ases []string) {
		pub, err := server.NewPublisher(d.Eng, server.DefaultRetain)
		if err != nil {
			b.Fatal(err)
		}
		// Manual publishes only: epoch-observer publishes during the
		// untimed churn would leave nothing for the timed region.
		pub.Detach()
		for _, k := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("delta=%d", k), func(b *testing.B) {
				b.ReportAllocs()
				start := pub.Current().Version
				seq := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					churn(b, d, ases, seq, k)
					seq += k
					b.StartTimer()
					pub.Publish()
				}
				b.StopTimer()
				if got := pub.Current().Version - start; got != uint64(b.N) {
					b.Fatalf("published %d versions over %d epochs", got, b.N)
				}
			})
		}
	}

	b.Run("as8", func(b *testing.B) {
		ases := make([]string, 8)
		for i := range ases {
			ases[i] = fmt.Sprintf("AS%d", i+1)
		}
		links := []nettrails.ASLink{
			{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
			{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
			{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
			{A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
			{A: "AS4", B: "AS6", Rel: nettrails.CustomerOf},
			{A: "AS5", B: "AS7", Rel: nettrails.CustomerOf},
			{A: "AS6", B: "AS8", Rel: nettrails.CustomerOf},
			{A: "AS7", B: "AS8", Rel: nettrails.PeerOf},
		}
		d, err := nettrails.NewBGPDeployment(ases, links, nettrails.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		events, err := d.GenerateTrace(200, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.ReplayTrace(events); err != nil {
			b.Fatal(err)
		}
		sweep(b, d, ases)
	})

	b.Run("as1000", func(b *testing.B) {
		g, err := routeviews.GenerateASGraph(routeviews.ASGraphOptions{Nodes: 1000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		d, err := nettrails.NewBGPDeployment(g.ASes, scenario.Links(g), nettrails.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Seed real routing state without a full-graph cascade per event:
		// a handful of origination waves through the speakers.
		for i := 0; i < 4; i++ {
			if err := d.Originate(g.ASes[i*251%len(g.ASes)], fmt.Sprintf("10.%d.0.0/16", i)); err != nil {
				b.Fatal(err)
			}
		}
		sweep(b, d, g.ASes)
	})
}

// BenchmarkEvalDeltaThroughput: microbenchmark of the single-node
// incremental engine (deltas through a two-way join with aggregate).
func BenchmarkEvalDeltaThroughput(b *testing.B) {
	sys := mustSystem(b, nettrails.MinCost, 2, nil)
	n1, _ := sys.Engine.Node("n1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := int64(i%50 + 1)
		t := nettrails.Tuple("link", nettrails.Addr("n1"), nettrails.Addr("n2"), nettrails.Int(c))
		if err := n1.InsertFact(t); err != nil {
			b.Fatal(err)
		}
		sys.Engine.RunQuiescent()
		if err := n1.DeleteFact(t); err != nil {
			b.Fatal(err)
		}
		sys.Engine.RunQuiescent()
	}
}

// BenchmarkQueryCache (E11): the serving-path win of the per-version
// sub-proof cache. Repeated pinned-version queries against an immutable
// snapshot skip re-traversal entirely:
//   - cold:      a full provgraph traversal per query (Snapshot.Query)
//   - warm:      the same query through the sub-proof cache
//     (Snapshot.CachedQuery; everything after the first is a hit)
//   - http-warm: the same through POST /query, i.e. cache win net of
//     HTTP + JSON overhead
//
// Hit/miss counters are asserted so a silently dead cache fails the
// benchmark instead of reporting fiction.
func BenchmarkQueryCache(b *testing.B) {
	side := 5
	n := side * side
	e, err := engine.New(nettrails.MinCost, nettrails.NodeNames(n), engine.Options{
		Seed: 1, Provenance: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ed := range protocols.GridTopology(side, side, 1) {
		if err := e.AddBiLink(ed.A, ed.B, ed.Cost); err != nil {
			b.Fatal(err)
		}
	}
	e.RunQuiescent()
	pub, err := server.NewPublisher(e, server.DefaultRetain)
	if err != nil {
		b.Fatal(err)
	}
	snap := pub.Current()
	// Corner-to-corner lineage: the most expensive query type over the
	// longest derivation chains the grid offers.
	mc := nettrails.Tuple("mincost",
		nettrails.Addr("n1"), nettrails.Addr(protocols.NodeName(n)), nettrails.Int(int64(2*(side-1))))

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.Query(provquery.Lineage, "n1", mc, provquery.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			res, hit, err := snap.CachedQuery(provquery.Lineage, "n1", mc, provquery.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if hit {
				hits++
			}
			if res.Root == nil {
				b.Fatal("no proof")
			}
		}
		if b.N > 1 && hits == 0 {
			b.Fatal("sub-proof cache never hit")
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})

	// The HTTP pair uses count queries: their responses are a few bytes,
	// so the comparison isolates traversal-vs-cache on the serving path
	// instead of measuring JSON serialization of a big proof tree.
	ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}))
	defer ts.Close()
	postQuery := func(b *testing.B, body string, wantCache string) {
		b.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); wantCache != "" && got != wantCache {
			b.Fatalf("X-Cache = %s, want %s", got, wantCache)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tupleLit := fmt.Sprintf("mincost(@'n1','%s',%d)", protocols.NodeName(n), 2*(side-1))

	// coldKey never repeats, not even across the growing b.N reruns a
	// benchmark makes.
	coldKey := 1000000
	b.Run("http-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A distinct (never-pruning) threshold per request gives each
			// its own cache key: every query is a full traversal, like a
			// server without the sub-proof cache.
			coldKey++
			body := fmt.Sprintf(`{"type":"count","tuple":"%s","version":%d,"options":{"threshold":%d}}`,
				tupleLit, snap.Version, coldKey)
			postQuery(b, body, "MISS")
		}
	})

	b.Run("http-warm", func(b *testing.B) {
		body := fmt.Sprintf(`{"type":"count","tuple":"%s","version":%d}`, tupleLit, snap.Version)
		startHits, _ := snap.CacheCounters()
		want := ""
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postQuery(b, body, want)
			want = "HIT" // everything after the first request must hit
		}
		b.StopTimer()
		// Delta, not the cumulative counter: the snapshot's cache is
		// shared with the other sub-benchmarks and earlier b.N reruns.
		hits, _ := snap.CacheCounters()
		b.ReportMetric(float64(hits-startHits)/float64(b.N), "hits/op")
	})
}

// BenchmarkAPIBatch (E12): the v1 API's batch endpoint, driven
// through the public Go SDK against a pinned snapshot. The workload is
// 12 count queries (4 distinct deep proofs, each repeated 3x; count
// responses are a few bytes, so the sweep isolates traversal-vs-cache
// on the serving path instead of JSON size):
//
//   - sequential:     12 individual POST /v1/query round trips
//   - batch:          the same 12 queries in one POST /v1/query/batch —
//     repeats inside the batch hit the snapshot's shared sub-proof
//     cache (hits/op asserts it), and 11 round trips disappear
//   - batch-nosharing: 12 all-distinct queries in one batch — every
//     element is a full cold traversal, i.e. what the batch would cost
//     without the shared cache
//
// Cache keys are fresh per iteration, so every iteration pays the same
// cold work and the comparison stays honest across reruns.
func BenchmarkAPIBatch(b *testing.B) {
	side := 4
	n := side * side
	e, err := engine.New(nettrails.MinCost, nettrails.NodeNames(n), engine.Options{
		Seed: 1, Provenance: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ed := range protocols.GridTopology(side, side, 1) {
		if err := e.AddBiLink(ed.A, ed.B, ed.Cost); err != nil {
			b.Fatal(err)
		}
	}
	e.RunQuiescent()
	pub, err := server.NewPublisher(e, server.DefaultRetain)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.PinCurrent(context.Background()); err != nil {
		b.Fatal(err)
	}

	distinct := []string{
		"mincost(@'n1','n16',6)",
		"mincost(@'n1','n4',3)",
		"mincost(@'n1','n13',3)",
		"mincost(@'n1','n8',4)",
	}
	const repeats = 3
	// keyBase mints per-iteration-fresh (never-pruning) thresholds, i.e.
	// fresh cache keys, and never repeats across the growing b.N reruns
	// (staying within the API's maxOptionValue bound).
	keyBase := 1000
	// workload builds the 12 queries; allDistinct breaks the in-batch
	// repetition so no element can reuse another's sub-proof.
	workload := func(key int, allDistinct bool) []client.BatchQuery {
		var qs []client.BatchQuery
		for r := 0; r < repeats; r++ {
			for i, tuple := range distinct {
				k := key + i
				if allDistinct {
					k = key + r*len(distinct) + i
				}
				qs = append(qs, client.BatchQuery{
					Type: "count", Tuple: tuple,
					Options: &client.Options{Threshold: k},
				})
			}
		}
		return qs
	}
	step := repeats * len(distinct)
	checkBatch := func(b *testing.B, res *client.BatchResult) {
		b.Helper()
		for _, item := range res.Results {
			if item.Err != nil || item.Result.Count == nil {
				b.Fatalf("batch item: %+v", item)
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			keyBase += step
			for _, q := range workload(keyBase, false) {
				res, err := c.Count(ctx, q.Tuple, client.WithOptions(*q.Options))
				if err != nil {
					b.Fatal(err)
				}
				if res.Count == nil {
					b.Fatal("no count")
				}
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		ctx := context.Background()
		hits := 0
		for i := 0; i < b.N; i++ {
			keyBase += step
			res, err := c.QueryBatch(ctx, workload(keyBase, false))
			if err != nil {
				b.Fatal(err)
			}
			checkBatch(b, res)
			hits += res.CacheHits
		}
		want := (repeats - 1) * len(distinct)
		if hits < want*b.N {
			b.Fatalf("batch cache sharing broken: %d hits over %d iterations, want %d/iter",
				hits, b.N, want)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})

	b.Run("batch-nosharing", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			keyBase += step
			res, err := c.QueryBatch(ctx, workload(keyBase, true))
			if err != nil {
				b.Fatal(err)
			}
			checkBatch(b, res)
		}
	})
}

// BenchmarkShardedQuery (E13): the sharded serving tier. The same
// deep corner-to-corner lineage is answered two ways over identical
// deterministic state:
//
//   - direct:         one single-process nettrailsd holding every
//     partition
//   - gateway-remote: a 3-shard deployment behind a gateway
//     (cmd/nettrailsgw's shape): every partition read crosses HTTP
//
// Fresh never-pruning thresholds per iteration keep every query a
// cold traversal, so the sweep prices federation itself (the
// hops/op metric counts real downstream shard requests) rather than
// result caching. On the 1-CPU dev container the absolute numbers
// mostly show HTTP round-trip cost; see docs/DEPLOYMENT.md.
func BenchmarkShardedQuery(b *testing.B) {
	side := 4
	buildEngine := func() *engine.Engine {
		e, err := engine.New(nettrails.MinCost, nettrails.NodeNames(side*side), engine.Options{
			Seed: 1, Provenance: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, ed := range protocols.GridTopology(side, side, 1) {
			if err := e.AddBiLink(ed.A, ed.B, ed.Cost); err != nil {
				b.Fatal(err)
			}
		}
		e.RunQuiescent()
		return e
	}

	singlePub, err := server.NewPublisher(buildEngine(), server.DefaultRetain)
	if err != nil {
		b.Fatal(err)
	}
	single := httptest.NewServer(server.New(singlePub, server.Info{Protocol: "mincost"}))
	defer single.Close()

	const total = 3
	urls := make([]string, total)
	for i := 0; i < total; i++ {
		pub, err := server.NewShardedPublisher(buildEngine(), server.DefaultRetain,
			server.ShardSpec{Index: i, Total: total})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}))
		defer ts.Close()
		urls[i] = ts.URL
	}

	remoteGW, err := gateway.New(context.Background(), urls,
		gateway.WithInfo(server.Info{Protocol: "mincost"}))
	if err != nil {
		b.Fatal(err)
	}
	remote := httptest.NewServer(remoteGW)
	defer remote.Close()

	// Fresh cache keys per query across all reruns.
	keyBase := 1000
	run := func(b *testing.B, url string, countHops bool) {
		hops := 0
		for i := 0; i < b.N; i++ {
			keyBase++
			body := fmt.Sprintf(
				`{"type":"lineage","tuple":"mincost(@'n1','n16',6)","version":1,"options":{"threshold":%d}}`,
				keyBase)
			resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("query: %v %d %s", err, resp.StatusCode, out)
			}
			if countHops {
				h, _ := strconv.Atoi(resp.Header.Get("X-Shard-Hops"))
				hops += h
			}
		}
		if countHops {
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		}
	}

	b.Run("direct", func(b *testing.B) { run(b, single.URL, false) })
	b.Run("gateway-remote", func(b *testing.B) { run(b, remote.URL, true) })
}
