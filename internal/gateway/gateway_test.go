package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/protocols"
	"repro/internal/server"
)

// buildGrid boots one converged MINCOST engine on a side x side grid.
// Engines built with identical parameters are byte-identical — the
// determinism the sharded deployment story rests on.
func buildGrid(t testing.TB, side int) *engine.Engine {
	t.Helper()
	n := side * side
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(n),
		protocols.GridTopology(side, side, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// deployment is a single-process daemon plus an equivalent N-shard
// deployment of the same deterministic run, plus a gateway over the
// shards.
type deployment struct {
	single    *httptest.Server
	singlePub *server.Publisher
	shards    []*httptest.Server
	shardSrvs []*server.Server
	shardPubs []*server.Publisher
	gw        *httptest.Server
	gwG       *gateway.Gateway
}

// deployGrid builds a single-process server and a total-shard
// deployment of the same side x side MINCOST grid, with a gateway
// federating the shards.
func deployGrid(t testing.TB, side, total int, retain int) *deployment {
	t.Helper()
	d := &deployment{}
	singlePub, err := server.NewPublisher(buildGrid(t, side), retain)
	if err != nil {
		t.Fatal(err)
	}
	d.singlePub = singlePub
	d.single = httptest.NewServer(server.New(singlePub, server.Info{Protocol: "mincost"}))
	t.Cleanup(d.single.Close)

	urls := make([]string, total)
	for i := 0; i < total; i++ {
		pub, err := server.NewShardedPublisher(buildGrid(t, side), retain,
			server.ShardSpec{Index: i, Total: total})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(pub, server.Info{Protocol: "mincost"})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		d.shardPubs = append(d.shardPubs, pub)
		d.shardSrvs = append(d.shardSrvs, srv)
		d.shards = append(d.shards, ts)
		urls[i] = ts.URL
	}

	g, err := gateway.New(context.Background(), urls,
		gateway.WithInfo(server.Info{Protocol: "mincost"}))
	if err != nil {
		t.Fatal(err)
	}
	d.gwG = g
	d.gw = httptest.NewServer(g)
	t.Cleanup(d.gw.Close)
	return d
}

func post(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// parityQueries are the request bodies the byte-parity tests sweep:
// all four query types plus option variants that exercise pruning,
// DFS order, and traversal limits.
func parityQueries(tuple string) []string {
	return []string{
		fmt.Sprintf(`{"q":"lineage of %s"}`, tuple),
		fmt.Sprintf(`{"q":"bases of %s"}`, tuple),
		fmt.Sprintf(`{"q":"nodes of %s"}`, tuple),
		fmt.Sprintf(`{"q":"count of %s"}`, tuple),
		fmt.Sprintf(`{"q":"lineage of %s with threshold 1"}`, tuple),
		fmt.Sprintf(`{"q":"count of %s with dfs"}`, tuple),
		fmt.Sprintf(`{"q":"lineage of %s with maxdepth 3"}`, tuple),
		fmt.Sprintf(`{"q":"lineage of %s with dfs, maxnodes 7"}`, tuple),
		fmt.Sprintf(`{"type":"bases","tuple":"%s"}`, tuple),
	}
}

// TestShardedParityMincost: a 3-shard gateway answers every query
// byte-identically to the single-process daemon over the same
// deterministic state — proofs, bases, node sets, counts, pruned and
// truncated flags, and the modeled message/byte stats.
func TestShardedParityMincost(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	for _, q := range parityQueries("mincost(@'n1','n9',4)") {
		sResp, sBody := post(t, d.single.URL+"/v1/query", q)
		gResp, gBody := post(t, d.gw.URL+"/v1/query", q)
		if sResp.StatusCode != http.StatusOK {
			t.Fatalf("single %s: %d %s", q, sResp.StatusCode, sBody)
		}
		if gResp.StatusCode != sResp.StatusCode || !bytes.Equal(sBody, gBody) {
			t.Fatalf("parity broken for %s:\nsingle %d %s\ngateway %d %s",
				q, sResp.StatusCode, sBody, gResp.StatusCode, gBody)
		}
		if gResp.Header.Get("X-Shard-Hops") == "" {
			t.Fatalf("gateway response missing X-Shard-Hops for %s", q)
		}
	}

	// /v1/nodes merges the shards back into the single-process document.
	_, sNodes := get(t, d.single.URL+"/v1/nodes")
	_, gNodes := get(t, d.gw.URL+"/v1/nodes")
	if !bytes.Equal(sNodes, gNodes) {
		t.Fatalf("/v1/nodes parity broken:\nsingle %s\ngateway %s", sNodes, gNodes)
	}

	// /v1/state/{node} routes to the owning shard and re-renders
	// unchanged, for every node of the network.
	for _, node := range []string{"n1", "n2", "n3", "n5", "n9"} {
		_, sState := get(t, d.single.URL+"/v1/state/"+node+"?rel=mincost")
		_, gState := get(t, d.gw.URL+"/v1/state/"+node+"?rel=mincost")
		if !bytes.Equal(sState, gState) {
			t.Fatalf("/v1/state/%s parity broken:\nsingle %s\ngateway %s", node, sState, gState)
		}
	}

	// proof.dot: same DOT document.
	_, sDot := get(t, d.single.URL+"/v1/proof.dot?tuple=mincost(@'n1','n9',4)")
	_, gDot := get(t, d.gw.URL+"/v1/proof.dot?tuple=mincost(@'n1','n9',4)")
	if !bytes.Equal(sDot, gDot) {
		t.Fatalf("proof.dot parity broken:\nsingle %s\ngateway %s", sDot, gDot)
	}
}

// TestShardedBatchParity: a gateway batch returns, element for
// element, the identical JSON documents the single-process batch
// returns — including in-place per-element errors.
func TestShardedBatchParity(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	batch := `{"queries":[
		{"q":"lineage of mincost(@'n1','n9',4)"},
		{"q":"bases of mincost(@'n4','n9',3)"},
		{"q":"count of mincost(@'n1','n9',99)"},
		{"type":"nodes","tuple":"mincost(@'n2','n8',3)"},
		{"q":"lineage of mincost(@'n1','n9',4)"}]}`
	sResp, sBody := post(t, d.single.URL+"/v1/query/batch", batch)
	gResp, gBody := post(t, d.gw.URL+"/v1/query/batch", batch)
	if sResp.StatusCode != http.StatusOK || gResp.StatusCode != http.StatusOK {
		t.Fatalf("batch: single %d gateway %d\n%s\n%s", sResp.StatusCode, gResp.StatusCode, sBody, gBody)
	}
	var s, g struct {
		Version uint64            `json:"version"`
		Time    int64             `json:"virtualTimeUs"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(sBody, &s); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gBody, &g); err != nil {
		t.Fatal(err)
	}
	if s.Version != g.Version || s.Time != g.Time || len(s.Results) != len(g.Results) {
		t.Fatalf("batch envelopes diverged:\n%s\nvs\n%s", sBody, gBody)
	}
	for i := range s.Results {
		var sv, gv interface{}
		if err := json.Unmarshal(s.Results[i], &sv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(g.Results[i], &gv); err != nil {
			t.Fatal(err)
		}
		sb, _ := json.Marshal(sv)
		gb, _ := json.Marshal(gv)
		if !bytes.Equal(sb, gb) {
			t.Fatalf("batch element %d diverged:\n%s\nvs\n%s", i, s.Results[i], g.Results[i])
		}
	}
	if gResp.Header.Get("X-Batch-Cache-Hits") != "1" {
		t.Fatalf("X-Batch-Cache-Hits = %q, want 1 (repeated element)",
			gResp.Header.Get("X-Batch-Cache-Hits"))
	}
}

// TestGatewayRequestBodyLimit: the gateway bounds request bodies like
// a shard, with the same structured 413 one byte over the limit.
func TestGatewayRequestBodyLimit(t *testing.T) {
	d := deployGrid(t, 2, 2, 0)
	over := `{"q":"` + strings.Repeat("x", server.MaxRequestBytes+1-len(`{"q":""}`)) + `"}`
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		resp, body := post(t, d.gw.URL+path, over)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s one byte over: %d, want 413 (%.200s)", path, resp.StatusCode, body)
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != server.ErrRequestTooLarge {
			t.Fatalf("%s one byte over: %s, want code %q", path, body, server.ErrRequestTooLarge)
		}
	}
}

// TestShardRejectsCrossShardQuery: a shard queried directly answers
// wrong_shard (421) both for a start node it does not own and for a
// traversal that escapes its partitions — never a silently partial
// result.
func TestShardRejectsCrossShardQuery(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	assertCode := func(resp *http.Response, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, wantStatus, body)
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != wantCode {
			t.Fatalf("error code = %q, want %q (%s)", e.Error.Code, wantCode, body)
		}
	}

	// Shard 0 of 3 owns n1, n4, n7. n2 belongs to shard 1.
	resp, body := post(t, d.shards[0].URL+"/v1/query", `{"q":"lineage of mincost(@'n2','n3',1)"}`)
	assertCode(resp, body, http.StatusMisdirectedRequest, server.ErrWrongShard)

	resp, body = get(t, d.shards[0].URL+"/v1/state/n2")
	assertCode(resp, body, http.StatusMisdirectedRequest, server.ErrWrongShard)

	// n1 is owned, but its corner-to-corner proof spans the grid: the
	// traversal escapes and must fail, not truncate.
	resp, body = post(t, d.shards[0].URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n9',4)"}`)
	assertCode(resp, body, http.StatusMisdirectedRequest, server.ErrWrongShard)

	// A fully node-local query on an owned node still answers.
	resp, body = post(t, d.shards[0].URL+"/v1/query", `{"q":"lineage of link(@'n1','n2',1)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local query on owned node: %d %s", resp.StatusCode, body)
	}

	// Unknown nodes keep their own error, distinct from wrong_shard.
	resp, body = get(t, d.shards[0].URL+"/v1/state/ghost")
	assertCode(resp, body, http.StatusNotFound, server.ErrUnknownNode)
}

// TestGatewayPinnedVersionEviction: a version pinned at the gateway
// that any shard no longer retains answers a clean snapshot_evicted
// 410 — the documented cross-shard epoch-agreement failure mode.
func TestGatewayPinnedVersionEviction(t *testing.T) {
	d := deployGrid(t, 3, 3, 2) // retain only 2 versions per shard

	churnAll := func() {
		// Identical stimulus on every engine keeps the deterministic
		// runs aligned.
		for _, e := range d.engines() {
			if err := e.RemoveBiLink("n4", "n5", 1); err != nil {
				t.Fatal(err)
			}
			e.RunQuiescent()
			if err := e.AddBiLink("n4", "n5", 1); err != nil {
				t.Fatal(err)
			}
			e.RunQuiescent()
		}
	}
	v0 := d.shardPubs[0].Current().Version
	for i := 0; i < 4; i++ {
		churnAll()
	}
	if cur := d.shardPubs[0].Current().Version; cur <= v0 {
		t.Fatalf("churn did not advance versions: %d -> %d", v0, cur)
	}

	resp, body := post(t, d.gw.URL+"/v1/query",
		fmt.Sprintf(`{"q":"count of mincost(@'n1','n9',4)","version":%d}`, v0))
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted pin: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(server.ErrSnapshotEvicted)) {
		t.Fatalf("evicted pin body: %s", body)
	}

	// And versions stayed aligned across every process: the parity
	// queries still agree at the (new) current version.
	_, sBody := post(t, d.single.URL+"/v1/query", `{"q":"count of mincost(@'n1','n9',4)"}`)
	_, gBody := post(t, d.gw.URL+"/v1/query", `{"q":"count of mincost(@'n1','n9',4)"}`)
	if !bytes.Equal(sBody, gBody) {
		t.Fatalf("post-churn parity broken:\n%s\nvs\n%s", sBody, gBody)
	}
}

// engines digs the underlying engines back out of the deployment's
// publishers for identical churn stimulus.
func (d *deployment) engines() []*engine.Engine {
	var out []*engine.Engine
	out = append(out, d.singlePub.Engine())
	for _, pub := range d.shardPubs {
		out = append(out, pub.Engine())
	}
	return out
}

// TestCrossShardCancellation: a client disconnect at the gateway
// aborts the in-flight downstream shard requests — observed, as in
// TestCancelledBatchStopsWalk, by the shards' read counters going
// quiet far below what the full batch would have cost.
func TestCrossShardCancellation(t *testing.T) {
	d := deployGrid(t, 5, 3, 0)

	reads := func() int64 {
		var total int64
		for _, srv := range d.shardSrvs {
			total += srv.ProvReads()
		}
		return total
	}

	const items = 1000
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		// Distinct never-pruning thresholds force a cold federated
		// traversal of the corner-to-corner proof per element.
		fmt.Fprintf(&sb,
			`{"type":"lineage","tuple":"mincost(@'n1','n25',8)","options":{"threshold":%d}}`,
			10000+i)
	}
	sb.WriteString("]}")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", d.gw.URL+"/v1/query/batch",
		strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	// Cancel once the gateway is demonstrably fanning out (a handful
	// of downstream reads served), not on a wall-clock guess.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if reads() >= 20 {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
	}()

	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled gateway batch unexpectedly completed")
	}

	// Downstream activity must stop: the shards' read counters go
	// quiet well below the full batch's cost.
	deadline := time.Now().Add(10 * time.Second)
	var last int64 = -1
	for {
		n := reads()
		if n == last {
			break
		}
		last = n
		if time.Now().After(deadline) {
			t.Fatalf("shards still serving reads 10s after client disconnect (%d reads)", n)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Every element's federated walk costs at least two downstream
	// reads (the corner-to-corner proof spans all three shards), so a
	// completed batch would exceed 2*items by far.
	if last >= 2*items {
		t.Fatalf("shards served %d reads despite the disconnect (full batch would need >= %d)", last, 2*items)
	}
	t.Logf("downstream reads stopped at %d (full batch would need >= %d)", last, 2*items)
}

// TestDiscoverShardsAffinity: the SDK's shard discovery builds the
// right routing table and ForNode routes partition-local calls to the
// owning shard.
func TestDiscoverShardsAffinity(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	ctx := context.Background()
	urls := []string{d.shards[0].URL, d.shards[1].URL, d.shards[2].URL}
	set, err := client.DiscoverShards(ctx, urls)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 || len(set.Nodes()) != 9 {
		t.Fatalf("set = %d shards, %d nodes", set.Len(), len(set.Nodes()))
	}
	// Round-robin over the sorted node list: n1 n2 n3 ... -> 0 1 2 ...
	for i, addr := range set.Nodes() {
		owner, ok := set.OwnerOf(addr)
		if !ok || owner != i%3 {
			t.Fatalf("OwnerOf(%s) = %d,%v want %d", addr, owner, ok, i%3)
		}
	}
	c, ok := set.ForNode("n5")
	if !ok {
		t.Fatal("ForNode(n5) not found")
	}
	st, err := c.State(ctx, "n5", client.Rel("mincost"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "n5" || len(st.Tables["mincost"]) == 0 {
		t.Fatalf("state via affinity = %+v", st)
	}
	// The non-owning shard refuses the same read with wrong_shard.
	if _, err := set.Shard(1).State(ctx, "n1"); !client.IsCode(err, client.CodeWrongShard) {
		t.Fatalf("cross-shard state error = %v, want %s", err, client.CodeWrongShard)
	}
	// Discovery with a wrong URL count fails loudly.
	if _, err := client.DiscoverShards(ctx, urls[:2]); err == nil {
		t.Fatal("discovery with 2 of 3 shard URLs unexpectedly succeeded")
	}
}
