package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/rel"
)

// buildGrid boots a converged MINCOST engine on a side x side grid.
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

func newServer(t testing.TB, e *engine.Engine, retain int) (*Publisher, *httptest.Server) {
	t.Helper()
	pub, err := NewPublisher(e, retain)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(pub, Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)
	return pub, ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t testing.TB, url, body string) (int, []byte) {
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
	return resp.StatusCode, out
}

func TestHealthzAndNodes(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	code, body := get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h struct {
		OK       bool   `json:"ok"`
		Protocol string `json:"protocol"`
		Version  uint64 `json:"version"`
		Nodes    int    `json:"nodes"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Protocol != "mincost" || h.Nodes != 4 || h.Version == 0 {
		t.Fatalf("healthz = %+v", h)
	}

	code, body = get(t, ts.URL+"/v1/nodes")
	if code != http.StatusOK {
		t.Fatalf("nodes: %d %s", code, body)
	}
	var ns struct {
		Nodes []struct {
			Addr      string   `json:"addr"`
			Tuples    int      `json:"tuples"`
			Neighbors []string `json:"neighbors"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &ns); err != nil {
		t.Fatal(err)
	}
	if len(ns.Nodes) != 4 || ns.Nodes[0].Addr != "n1" || ns.Nodes[0].Tuples == 0 {
		t.Fatalf("nodes = %+v", ns)
	}
	if len(ns.Nodes[0].Neighbors) != 2 {
		t.Fatalf("n1 neighbors = %v", ns.Nodes[0].Neighbors)
	}
}

func TestStateEndpointAndTimeTravel(t *testing.T) {
	e := buildGrid(t, 2)
	pub, ts := newServer(t, e, 0)

	code, body := get(t, ts.URL+"/v1/state/n1")
	if code != http.StatusOK {
		t.Fatalf("state: %d %s", code, body)
	}
	var st struct {
		Node   string `json:"node"`
		Tables map[string][]struct {
			Rel  string   `json:"rel"`
			Vals []string `json:"vals"`
			Text string   `json:"text"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "n1" || len(st.Tables["mincost"]) == 0 || len(st.Tables["link"]) == 0 {
		t.Fatalf("state = %s", body)
	}

	// Relation filter.
	code, body = get(t, ts.URL+"/v1/state/n1?rel=link")
	if code != http.StatusOK {
		t.Fatalf("state?rel: %d %s", code, body)
	}
	var filtered struct {
		Tables map[string]json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Tables) != 1 || len(filtered.Tables["link"]) == 0 {
		t.Fatalf("filtered state = %s", body)
	}

	// Unknown node.
	if code, _ := get(t, ts.URL+"/v1/state/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown node: %d", code)
	}

	// Time travel: mutate, then read back the pre-change instant.
	preTime := pub.Current().Time
	preBody := func() []byte {
		_, b := get(t, ts.URL+"/v1/state/n1?rel=mincost")
		return b
	}()
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	if pub.Current().Time <= preTime {
		t.Fatalf("virtual time did not advance: %d -> %d", preTime, pub.Current().Time)
	}
	code, body = get(t, fmt.Sprintf("%s/v1/state/n1?rel=mincost&t=%d", ts.URL, int64(preTime)))
	if code != http.StatusOK {
		t.Fatalf("time travel: %d %s", code, body)
	}
	var pre, travel struct {
		Tables map[string]json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(preBody, &pre); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &travel); err != nil {
		t.Fatal(err)
	}
	if string(pre.Tables["mincost"]) != string(travel.Tables["mincost"]) {
		t.Fatalf("historical read diverged:\n%s\nvs\n%s", pre.Tables["mincost"], travel.Tables["mincost"])
	}
}

func TestQueryEndpointTextAndStructured(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	code, body := post(t, ts.URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n4',2)"}`)
	if code != http.StatusOK {
		t.Fatalf("text query: %d %s", code, body)
	}
	var q struct {
		Type  string `json:"type"`
		Proof *struct {
			Tuple *struct {
				Text string `json:"text"`
			} `json:"tuple"`
		} `json:"proof"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Type != "lineage" || q.Proof == nil || q.Proof.Tuple.Text != "mincost(@n1, n4, 2)" {
		t.Fatalf("query = %s", body)
	}
	if !strings.Contains(q.Text, "via rule") {
		t.Fatalf("rendered text missing rules:\n%s", q.Text)
	}

	code, body = post(t, ts.URL+"/v1/query",
		`{"type":"count","tuple":"mincost(@'n1','n4',2)","options":{"threshold":1}}`)
	if code != http.StatusOK {
		t.Fatalf("structured query: %d %s", code, body)
	}
	var c struct {
		Count  *int `json:"count"`
		Pruned bool `json:"pruned"`
	}
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	if c.Count == nil || *c.Count != 1 || !c.Pruned {
		t.Fatalf("pruned count = %s", body)
	}

	// Bases of a derived tuple are link facts.
	code, body = post(t, ts.URL+"/v1/query", `{"q":"bases of mincost(@'n1','n4',2)"}`)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"rel": "link"`)) {
		t.Fatalf("bases query: %d %s", code, body)
	}

	// Errors: bad body, malformed textual query, missing provenance,
	// bad type. Malformed queries are 400; only missing provenance in
	// an otherwise valid query is 404.
	if code, _ := post(t, ts.URL+"/v1/query", `{`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/query", `{"q":"explain mincost(@'n1','n4',2)"}`); code != http.StatusBadRequest {
		t.Fatalf("malformed textual query: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n4'"}`); code != http.StatusBadRequest {
		t.Fatalf("unterminated tuple literal: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n4',99)"}`); code != http.StatusNotFound {
		t.Fatalf("unknown tuple: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/query", `{"type":"wat","tuple":"link(@'n1','n2',1)"}`); code != http.StatusBadRequest {
		t.Fatalf("bad type: %d", code)
	}
}

func TestProofDOTEndpoint(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)
	code, body := get(t, ts.URL+"/v1/proof.dot?tuple=mincost(@'n1','n4',2)")
	if code != http.StatusOK {
		t.Fatalf("proof.dot: %d %s", code, body)
	}
	text := string(body)
	for _, want := range []string{"digraph provenance", "shape=box", "shape=ellipse", "cluster_"} {
		if !strings.Contains(text, want) {
			t.Fatalf("DOT missing %q:\n%s", want, text)
		}
	}
}

func TestPublisherVersioningAndRetention(t *testing.T) {
	e := buildGrid(t, 2)
	pub, err := NewPublisher(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	v1 := pub.Current().Version

	// Publishing without state change must not mint a version.
	pub.Publish()
	if pub.Current().Version != v1 {
		t.Fatalf("version advanced without a state change: %d -> %d", v1, pub.Current().Version)
	}

	churn := func() {
		t.Helper()
		if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := e.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
	}
	churn()
	v2 := pub.Current().Version
	if v2 <= v1 {
		t.Fatalf("version did not advance with churn: %d -> %d", v1, v2)
	}

	// retain=2: after enough churn the first version must age out.
	churn()
	if _, ok := pub.At(v1); ok {
		t.Fatalf("version %d still retained with retain=2 at newest %d", v1, pub.Current().Version)
	}
	if snap, ok := pub.At(pub.Current().Version); !ok || snap.Version != pub.Current().Version {
		t.Fatal("current version must always be pinnable")
	}
	if _, ok := pub.At(pub.Current().Version + 100); ok {
		t.Fatal("future version must not resolve")
	}
}

// TestPinnedQueriesByteIdenticalUnderChurn is the acceptance check:
// while the simulation actively advances epochs, two concurrent /query
// requests pinned to the same snapshot version return byte-identical
// JSON. Run with -race to also prove the reader/scheduler isolation.
func TestPinnedQueriesByteIdenticalUnderChurn(t *testing.T) {
	e := buildGrid(t, 3)
	pub, ts := newServer(t, e, 0)

	const rounds = 25
	done := make(chan struct{})
	go func() {
		// Simulation thread: keep tearing the grid apart and healing it.
		defer close(done)
		for i := 0; i < rounds; i++ {
			if err := e.RemoveBiLink("n4", "n5", 1); err != nil {
				t.Error(err)
				return
			}
			e.RunQuiescent()
			if err := e.AddBiLink("n4", "n5", 1); err != nil {
				t.Error(err)
				return
			}
			e.RunQuiescent()
		}
	}()

	query := func(version uint64) (int, []byte) {
		return post(t, ts.URL+"/v1/query", fmt.Sprintf(
			`{"q":"lineage of mincost(@'n1','n9',4)","version":%d}`, version))
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	versionsSeen := map[uint64]bool{}
	compared := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := pub.Current().Version
				type reply struct {
					code int
					body []byte
				}
				replies := make(chan reply, 2)
				var inner sync.WaitGroup
				for k := 0; k < 2; k++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						code, body := query(v)
						replies <- reply{code, body}
					}()
				}
				inner.Wait()
				close(replies)
				a := <-replies
				b := <-replies
				if a.code == http.StatusGone || b.code == http.StatusGone {
					continue // pinned version aged out mid-flight; allowed
				}
				if a.code != b.code || !bytes.Equal(a.body, b.body) {
					t.Errorf("version %d: concurrent pinned queries diverged:\n%d %s\nvs\n%d %s",
						v, a.code, a.body, b.code, b.body)
					return
				}
				mu.Lock()
				versionsSeen[v] = true
				compared++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-done
	if compared == 0 {
		t.Fatal("no pinned query pair ever completed")
	}
	if len(versionsSeen) < 2 {
		t.Logf("note: only %d distinct versions observed (slow machine?)", len(versionsSeen))
	}
	if got := pub.Current().Version; got < rounds {
		t.Fatalf("simulation published only %d versions over %d churn rounds", got, rounds)
	}
}

// TestSnapshotStableWhileSimulationAdvances pins one snapshot and
// checks its query answer does not change as the live system diverges.
func TestSnapshotStableWhileSimulationAdvances(t *testing.T) {
	e := buildGrid(t, 2)
	pub, ts := newServer(t, e, 0)

	v := pub.Current().Version
	q := fmt.Sprintf(`{"q":"count of mincost(@'n1','n4',2)","version":%d}`, v)
	_, before := post(t, ts.URL+"/v1/query", q)

	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()

	_, after := post(t, ts.URL+"/v1/query", q)
	if !bytes.Equal(before, after) {
		t.Fatalf("pinned snapshot changed under the reader:\n%s\nvs\n%s", before, after)
	}
	// The live current snapshot, by contrast, must reflect the change.
	_, live := post(t, ts.URL+"/v1/query", `{"q":"count of mincost(@'n1','n4',2)"}`)
	if bytes.Equal(before, live) {
		t.Fatal("current snapshot never advanced past the pinned one")
	}
}

// getFull is get plus response headers (for cache assertions).
func getFull(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func postFull(t testing.TB, url, body string) (*http.Response, []byte) {
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

// TestQueryCacheServesRepeatedPinnedQueries is the HTTP acceptance test
// of the per-version sub-proof cache: the first pinned query misses,
// every repeat hits, hit counters advance, and hit/miss bodies are
// byte-identical.
func TestQueryCacheServesRepeatedPinnedQueries(t *testing.T) {
	e := buildGrid(t, 3)
	pub, ts := newServer(t, e, 0)
	v := pub.Current().Version
	q := fmt.Sprintf(`{"q":"lineage of mincost(@'n1','n9',4)","version":%d}`, v)

	first, firstBody := postFull(t, ts.URL+"/v1/query", q)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d %s", first.StatusCode, firstBody)
	}
	if got := first.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", got)
	}

	second, secondBody := postFull(t, ts.URL+"/v1/query", q)
	if got := second.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cache hit body diverged from miss body:\n%s\nvs\n%s", firstBody, secondBody)
	}
	if hits := second.Header.Get("X-Cache-Hits"); hits != "1" {
		t.Fatalf("X-Cache-Hits = %q, want 1", hits)
	}
	third, _ := postFull(t, ts.URL+"/v1/query", q)
	if hits := third.Header.Get("X-Cache-Hits"); hits != "2" {
		t.Fatalf("X-Cache-Hits = %q, want 2", hits)
	}
	if misses := third.Header.Get("X-Cache-Misses"); misses != "1" {
		t.Fatalf("X-Cache-Misses = %q, want 1", misses)
	}
	if hits, misses := pub.Current().CacheCounters(); hits != 2 || misses != 1 {
		t.Fatalf("CacheCounters = %d/%d, want 2/1", hits, misses)
	}

	// A different option set is a different sub-proof: it must miss.
	alt, _ := postFull(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"q":"lineage of mincost(@'n1','n9',4) with threshold 1","version":%d}`, v))
	if got := alt.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("different options X-Cache = %q, want MISS", got)
	}

	// proof.dot shares the same cache (lineage + default options).
	dot1, _ := getFull(t, fmt.Sprintf("%s/v1/proof.dot?tuple=mincost(@'n1','n9',4)&version=%d", ts.URL, v))
	if got := dot1.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("proof.dot after cached lineage X-Cache = %q, want HIT", got)
	}

	// Go-level counters surface in Stats on the copy CachedQuery returns.
	mc, err := nettrailsParse("mincost(@'n1','n9',4)")
	if err != nil {
		t.Fatal(err)
	}
	res, hit, err := pub.Current().CachedQuery(provquery.Lineage, "n1", mc, provquery.Options{})
	if err != nil || !hit {
		t.Fatalf("CachedQuery hit=%v err=%v", hit, err)
	}
	if res.Stats.SubProofHits == 0 || res.Stats.SubProofMisses == 0 {
		t.Fatalf("Stats cache counters not set: %+v", res.Stats)
	}
}

// nettrailsParse avoids importing the root facade: tuple literals parse
// through provquery like the HTTP handlers do.
func nettrailsParse(lit string) (rel.Tuple, error) {
	return provquery.ParseTupleLiteral(lit)
}

// TestUnknownRoutesAndMethodsAreStructuredJSON: every error the server
// emits — including unmatched paths and wrong methods — is JSON with
// the right status code.
func TestUnknownRoutesAndMethodsAreStructuredJSON(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	assertJSONError := func(resp *http.Response, body []byte, wantCode int, wantErrCode string) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, wantCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("not a structured error envelope: %s", body)
		}
		if e.Error.Code != wantErrCode {
			t.Fatalf("error code = %q, want %q (%s)", e.Error.Code, wantErrCode, body)
		}
	}

	resp, body := getFull(t, ts.URL+"/nope")
	assertJSONError(resp, body, http.StatusNotFound, ErrUnknownEndpoint)

	resp, body = postFull(t, ts.URL+"/v1/nodes", `{}`)
	assertJSONError(resp, body, http.StatusMethodNotAllowed, ErrMethodNotAllowed)
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q, want GET", allow)
	}
	resp, body = getFull(t, ts.URL+"/v1/query")
	assertJSONError(resp, body, http.StatusMethodNotAllowed, ErrMethodNotAllowed)

	resp, body = getFull(t, ts.URL+"/v1/nodes?version=banana")
	assertJSONError(resp, body, http.StatusBadRequest, ErrInvalidRequest)
	resp, body = getFull(t, ts.URL+"/v1/state/n1?version=999999")
	assertJSONError(resp, body, http.StatusGone, ErrSnapshotEvicted)
	resp, body = getFull(t, ts.URL+"/v1/state/ghost")
	assertJSONError(resp, body, http.StatusNotFound, ErrUnknownNode)

	// proof.dot success still carries the Graphviz content type.
	resp, _ = getFull(t, ts.URL+"/v1/proof.dot?tuple=mincost(@'n1','n4',2)")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/vnd.graphviz") {
		t.Fatalf("proof.dot Content-Type = %q", ct)
	}
}

// TestServerTraversalCaps: server-side maxdepth/maxnodes caps clamp
// every query, and request-level limits flow through both request
// forms.
func TestServerTraversalCaps(t *testing.T) {
	e := buildGrid(t, 3)
	pub, err := NewPublisher(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(pub, Info{Protocol: "mincost", MaxDepth: 2}))
	t.Cleanup(ts.Close)

	code, body := post(t, ts.URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n9',4)"}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	var q struct {
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.Truncated {
		t.Fatalf("capped server did not truncate: %s", body)
	}

	// The structured form's limits also apply (tighter than the cap).
	code, body = post(t, ts.URL+"/v1/query",
		`{"type":"lineage","tuple":"mincost(@'n1','n9',4)","options":{"maxdepth":1}}`)
	if code != http.StatusOK {
		t.Fatalf("structured query: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.Truncated {
		t.Fatalf("structured maxdepth did not truncate: %s", body)
	}
}

// TestQueryCacheBounded: the per-snapshot sub-proof cache stops
// growing at its entry cap — request-controlled option values must not
// let a client grow server memory without bound — while already-cached
// keys keep hitting.
func TestQueryCacheBounded(t *testing.T) {
	e := buildGrid(t, 2)
	pub, err := NewPublisher(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := pub.Current()
	mc, err := provquery.ParseTupleLiteral("mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct never-pruning thresholds mint distinct keys.
	for i := 0; i <= maxQueryCacheEntries; i++ {
		if _, _, err := snap.CachedQuery(provquery.DerivCount, "n1", mc,
			provquery.Options{Threshold: 1000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(snap.cache.m); got > maxQueryCacheEntries {
		t.Fatalf("cache grew to %d entries past the %d cap", got, maxQueryCacheEntries)
	}
	// A fresh key against the full cache evaluates but is not stored.
	fresh := provquery.Options{Threshold: 999999}
	if _, hit, err := snap.CachedQuery(provquery.DerivCount, "n1", mc, fresh); err != nil || hit {
		t.Fatalf("fresh key on full cache: hit=%v err=%v", hit, err)
	}
	if _, hit, err := snap.CachedQuery(provquery.DerivCount, "n1", mc, fresh); err != nil || hit {
		t.Fatalf("full cache must not store new keys: hit=%v err=%v", hit, err)
	}
	// An entry cached before the cap still hits.
	if _, hit, err := snap.CachedQuery(provquery.DerivCount, "n1", mc,
		provquery.Options{Threshold: 1000}); err != nil || !hit {
		t.Fatalf("pre-cap entry: hit=%v err=%v", hit, err)
	}
}
