package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/provquery"
	"repro/internal/testutil"
)

// decodeEnvelope parses the uniform v1 error envelope.
func decodeEnvelope(t *testing.T, body []byte) (code, msg string) {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("not an error envelope: %s", body)
	}
	return e.Error.Code, e.Error.Message
}

// TestPreV1PathsAreGone: /v1 is the only surface. The unversioned
// paths the server once mounted as deprecated aliases, and /version,
// are unknown endpoints like any other unmatched path.
func TestPreV1PathsAreGone(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	cases := []struct {
		name, method, path string
	}{
		{"healthz", "GET", "/healthz"},
		{"nodes", "GET", "/nodes"},
		{"state", "GET", "/state/n1"},
		{"query", "POST", "/query"},
		{"proof.dot", "GET", "/proof.dot?tuple=mincost(@'n1','n4',2)"},
		{"version", "GET", "/version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == "POST" {
				resp, body = postFull(t, ts.URL+tc.path, `{"q":"lineage of mincost(@'n1','n4',2)"}`)
			} else {
				resp, body = getFull(t, ts.URL+tc.path)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404 (%s)", tc.method, tc.path, resp.StatusCode, body)
			}
			if code, _ := decodeEnvelope(t, body); code != ErrUnknownEndpoint {
				t.Fatalf("%s %s code = %q, want %q", tc.method, tc.path, code, ErrUnknownEndpoint)
			}
		})
	}
}

// TestVersionEndpoint: GET /v1/version reports the build metadata of
// the running binary.
func TestVersionEndpoint(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	code, body := get(t, ts.URL+"/v1/version")
	if code != http.StatusOK {
		t.Fatalf("version: %d %s", code, body)
	}
	var info buildinfo.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Module != "repro" || !strings.HasPrefix(info.GoVersion, "go") {
		t.Fatalf("version info = %+v", info)
	}
}

// TestETagConditionalGET: snapshot-determined GET responses carry a
// strong ETag; If-None-Match answers 304 with no body, pinned and
// current spellings of the same request share the tag, and a different
// parameter set mints a different one.
func TestETagConditionalGET(t *testing.T) {
	e := buildGrid(t, 2)
	pub, ts := newServer(t, e, 0)
	v := pub.Current().Version

	for _, path := range []string{
		fmt.Sprintf("/v1/nodes?version=%d", v),
		fmt.Sprintf("/v1/state/n1?rel=mincost&version=%d", v),
		fmt.Sprintf("/v1/proof.dot?tuple=mincost(@'n1','n4',2)&version=%d", v),
	} {
		resp, body := getFull(t, ts.URL+path)
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || etag == "" {
			t.Fatalf("%s: status %d etag %q", path, resp.StatusCode, etag)
		}
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		cond, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		condBody := new(bytes.Buffer)
		_, _ = condBody.ReadFrom(cond.Body)
		cond.Body.Close()
		if cond.StatusCode != http.StatusNotModified || condBody.Len() != 0 {
			t.Fatalf("%s: conditional GET = %d (%d body bytes), want 304 empty",
				path, cond.StatusCode, condBody.Len())
		}
		if got := cond.Header.Get("ETag"); got != etag {
			t.Fatalf("%s: 304 ETag = %q, want %q", path, got, etag)
		}
		// A stale validator still gets the full body.
		req.Header.Set("If-None-Match", `"0-stale"`)
		full, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		fullBody := new(bytes.Buffer)
		_, _ = fullBody.ReadFrom(full.Body)
		full.Body.Close()
		if full.StatusCode != http.StatusOK || !bytes.Equal(fullBody.Bytes(), body) {
			t.Fatalf("%s: stale-validator GET = %d, body diverged", path, full.StatusCode)
		}
	}

	// The unpinned spelling shares the pinned tag (same resolved
	// version, same normalized request).
	pinned, _ := getFull(t, fmt.Sprintf("%s/v1/nodes?version=%d", ts.URL, v))
	current, _ := getFull(t, ts.URL+"/v1/nodes")
	if ct, vt := current.Header.Get("ETag"), pinned.Header.Get("ETag"); ct != vt {
		t.Fatalf("current-version ETag %q != pinned ETag %q for the same snapshot", ct, vt)
	}
	// The /v1 prefix stays out of the hash, so tags keep the values
	// clients already hold.
	if want := requestETag(pub.Current().Version, httptest.NewRequest("GET", "/nodes", nil)); pinned.Header.Get("ETag") != want {
		t.Fatalf("ETag %q, want %q (hash of the unprefixed path)", pinned.Header.Get("ETag"), want)
	}
	// A different parameter set is a different resource.
	other, _ := getFull(t, fmt.Sprintf("%s/v1/state/n1?rel=link&version=%d", ts.URL, v))
	mc, _ := getFull(t, fmt.Sprintf("%s/v1/state/n1?rel=mincost&version=%d", ts.URL, v))
	if other.Header.Get("ETag") == mc.Header.Get("ETag") {
		t.Fatal("different rel filters share an ETag")
	}
}

// bodyOfSize is a JSON object of exactly n bytes: one "q" string of
// padding.
func bodyOfSize(n int) string {
	const prefix, suffix = `{"q":"`, `"}`
	return prefix + strings.Repeat("x", n-len(prefix)-len(suffix)) + suffix
}

// TestRequestBodyLimit: every JSON-body endpoint reads at most
// MaxRequestBytes. A body at the limit is decoded (and fails on its
// content, 400); one byte over is the structured 413, before any
// decoding work is spent on it.
func TestRequestBodyLimit(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)
	for _, path := range []string{"/v1/query", "/v1/query/batch", "/v1/prov/read"} {
		resp, body := postFull(t, ts.URL+path, bodyOfSize(MaxRequestBytes))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s at the limit: %d, want 400 (%.200s)", path, resp.StatusCode, body)
		}
		resp, body = postFull(t, ts.URL+path, bodyOfSize(MaxRequestBytes+1))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s one byte over: %d, want 413 (%.200s)", path, resp.StatusCode, body)
		}
		if code, _ := decodeEnvelope(t, body); code != ErrRequestTooLarge {
			t.Fatalf("%s one byte over: code %q, want %q", path, code, ErrRequestTooLarge)
		}
	}
}

// TestFullBatchesFitBodyLimit: the byte limit leaves room for a full
// batch of either kind with generous item sizes, so the count limits
// stay the ones a well-formed client runs into.
func TestFullBatchesFitBodyLimit(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	// maxBatchQueries queries of 3 KiB each. The padding makes every
	// element an invalid_query item error, but the batch itself is
	// accepted.
	queries := make([]QueryRequest, maxBatchQueries)
	for i := range queries {
		queries[i].Q = "lineage of " + strings.Repeat("x", 3<<10-len("lineage of "))
	}
	batch, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postFull(t, ts.URL+"/v1/query/batch", string(batch))
	var br batchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil || len(br.Results) != maxBatchQueries {
		t.Fatalf("full query batch (%d bytes): %d (%.200s)", len(batch), resp.StatusCode, body)
	}

	// MaxProvReads reads of 512 bytes each (a real read is under 100).
	reads := make([]ProvReadOp, MaxProvReads)
	for i := range reads {
		reads[i] = ProvReadOp{Op: ProvReadVertex, Loc: "n1", ID: strings.Repeat("0", 512-len(`{"op":"vertex","loc":"n1","id":""},`))}
	}
	batch, err = json.Marshal(ProvReadRequest{Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postFull(t, ts.URL+"/v1/prov/read", string(batch))
	var pr ProvReadResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Results) != MaxProvReads {
		t.Fatalf("full read batch (%d bytes): %d (%.200s)", len(batch), resp.StatusCode, body)
	}
}

// TestOptionValidationRejections: out-of-range traversal options and
// unknown query types are rejected at the API boundary with the 400
// envelope — never silently clamped, never a panic.
func TestOptionValidationRejections(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	cases := []struct {
		name, body, wantCode string
	}{
		{"negative maxdepth", `{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxdepth":-1}}`, ErrInvalidOption},
		{"negative maxnodes", `{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxnodes":-7}}`, ErrInvalidOption},
		{"negative threshold", `{"type":"count","tuple":"mincost(@'n1','n4',2)","options":{"threshold":-2}}`, ErrInvalidOption},
		{"absurd maxdepth", `{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxdepth":2000000}}`, ErrInvalidOption},
		{"absurd maxnodes", `{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxnodes":99999999}}`, ErrInvalidOption},
		{"unknown type", `{"type":"explain","tuple":"mincost(@'n1','n4',2)"}`, ErrInvalidQuery},
		{"unknown textual type", `{"q":"explain of mincost(@'n1','n4',2)"}`, ErrInvalidQuery},
		{"neither form", `{"at":"n1"}`, ErrInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postFull(t, ts.URL+"/v1/query", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if code, _ := decodeEnvelope(t, body); code != tc.wantCode {
				t.Fatalf("error code = %q, want %q (%s)", code, tc.wantCode, body)
			}
		})
	}

	// Bad ?timeout= values are invalid_option too.
	resp, body := postFull(t, ts.URL+"/v1/query?timeout=banana",
		`{"q":"count of mincost(@'n1','n4',2)"}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusBadRequest || code != ErrInvalidOption {
		t.Fatalf("bad timeout: %d %s", resp.StatusCode, body)
	}
	resp, body = postFull(t, ts.URL+"/v1/query?timeout=-5s",
		`{"q":"count of mincost(@'n1','n4',2)"}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusBadRequest || code != ErrInvalidOption {
		t.Fatalf("negative timeout: %d %s", resp.StatusCode, body)
	}
}

// TestErrorCodesConsistentAcrossEndpoints: the same defect earns the
// same stable code on every query-evaluating route — an SDK caller
// branching on a code must not get different answers per endpoint.
func TestErrorCodesConsistentAcrossEndpoints(t *testing.T) {
	e := buildGrid(t, 2)
	_, ts := newServer(t, e, 0)

	// Unknown starting node: unknown_node everywhere.
	resp, body := postFull(t, ts.URL+"/v1/query",
		`{"type":"lineage","tuple":"mincost(@'ghost','n4',2)"}`)
	qCode, _ := decodeEnvelope(t, body)
	resp2, body2 := getFull(t, ts.URL+"/v1/proof.dot?tuple=mincost(@'ghost','n4',2)")
	dCode, _ := decodeEnvelope(t, body2)
	if qCode != ErrUnknownNode || dCode != qCode || resp.StatusCode != resp2.StatusCode {
		t.Fatalf("unknown node: /query = %d %q, /proof.dot = %d %q",
			resp.StatusCode, qCode, resp2.StatusCode, dCode)
	}

	// Unknown tuple at a real node: no_provenance everywhere.
	_, body = postFull(t, ts.URL+"/v1/query",
		`{"type":"lineage","tuple":"mincost(@'n1','n4',99)"}`)
	qCode, _ = decodeEnvelope(t, body)
	_, body2 = getFull(t, ts.URL+"/v1/proof.dot?tuple=mincost(@'n1','n4',99)")
	dCode, _ = decodeEnvelope(t, body2)
	if qCode != ErrNoProvenance || dCode != qCode {
		t.Fatalf("unknown tuple: /query = %q, /proof.dot = %q", qCode, dCode)
	}
}

// normalizeJSON re-indents a JSON document exactly as WriteJSON does,
// so a batch result element can be compared byte-for-byte against the
// equivalent individual response body.
func normalizeJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatalf("normalize %s: %v", raw, err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestBatchMatchesSequential is the batch acceptance test: a batch
// over a pinned snapshot returns, element by element, the identical
// JSON documents the equivalent sequential /v1/query requests return —
// and the batch's queries share the snapshot's sub-proof cache.
func TestBatchMatchesSequential(t *testing.T) {
	e := buildGrid(t, 3)
	pub, ts := newServer(t, e, 0)
	v := pub.Current().Version

	queries := []string{
		`{"q":"lineage of mincost(@'n1','n9',4)"}`,
		`{"type":"bases","tuple":"mincost(@'n1','n9',4)"}`,
		`{"q":"nodes of mincost(@'n1','n9',4)"}`,
		`{"q":"count of mincost(@'n1','n9',4) with threshold 1"}`,
		`{"q":"lineage of mincost(@'n1','n9',4)"}`, // repeat: in-batch cache hit
	}

	// Sequential ground truth, each pinned to v.
	sequential := make([][]byte, len(queries))
	for i, q := range queries {
		pinned := strings.TrimSuffix(q, "}") + fmt.Sprintf(`,"version":%d}`, v)
		code, body := post(t, ts.URL+"/v1/query", pinned)
		if code != http.StatusOK {
			t.Fatalf("sequential query %d: %d %s", i, code, body)
		}
		sequential[i] = body
	}

	batchBody := fmt.Sprintf(`{"version":%d,"queries":[%s]}`, v, strings.Join(queries, ","))
	resp, body := postFull(t, ts.URL+"/v1/query/batch", batchBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Version uint64            `json:"version"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Version != v || len(batch.Results) != len(queries) {
		t.Fatalf("batch = version %d, %d results", batch.Version, len(batch.Results))
	}
	for i := range queries {
		if got := normalizeJSON(t, batch.Results[i]); !bytes.Equal(got, sequential[i]) {
			t.Fatalf("batch result %d diverged from the sequential body:\n%s\nvs\n%s",
				i, got, sequential[i])
		}
	}
	// Every batch element was served from the cache the sequential
	// requests warmed.
	if got := resp.Header.Get("X-Batch-Cache-Hits"); got != fmt.Sprint(len(queries)) {
		t.Fatalf("X-Batch-Cache-Hits = %q, want %d", got, len(queries))
	}

	// A batch with fresh cache keys shares sub-proofs within itself:
	// the repeated element hits the entry its first occurrence minted.
	fresh := fmt.Sprintf(`{"version":%d,"queries":[`+
		`{"type":"count","tuple":"mincost(@'n1','n9',4)","options":{"threshold":7777}},`+
		`{"type":"count","tuple":"mincost(@'n1','n9',4)","options":{"threshold":7777}}]}`, v)
	resp, body = postFull(t, ts.URL+"/v1/query/batch", fresh)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh batch: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Batch-Cache-Hits"); got != "1" {
		t.Fatalf("fresh batch X-Batch-Cache-Hits = %q, want 1 (miss then hit)", got)
	}
}

// TestBatchSharesResultsWhenSnapshotCacheFull: the in-batch sharing
// guarantee must not depend on the snapshot's bounded query cache
// having room — once that cache is saturated with other keys, a
// repeated query inside one batch is still served from the batch's
// own overlay, byte-identically.
func TestBatchSharesResultsWhenSnapshotCacheFull(t *testing.T) {
	e := buildGrid(t, 2)
	pub, err := NewPublisher(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(pub, Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)
	snap := pub.Current()
	mc, err := nettrailsParse("mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxQueryCacheEntries; i++ {
		if _, _, err := snap.CachedQuery(provquery.DerivCount, "n1", mc,
			provquery.Options{Threshold: 10000 + i}); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh key the full cache will decline, repeated in one batch.
	body := fmt.Sprintf(`{"version":%d,"queries":[
		{"type":"count","tuple":"mincost(@'n1','n4',2)","options":{"threshold":777}},
		{"type":"count","tuple":"mincost(@'n1','n4',2)","options":{"threshold":777}}]}`, snap.Version)
	resp, out := postFull(t, ts.URL+"/v1/query/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Batch-Cache-Hits"); got != "1" {
		t.Fatalf("X-Batch-Cache-Hits = %q on a full snapshot cache, want 1", got)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || !bytes.Equal(batch.Results[0], batch.Results[1]) {
		t.Fatalf("overlay-served repeat diverged:\n%s\nvs\n%s", batch.Results[0], batch.Results[1])
	}
}

// TestBatchErrors: batch-level failures are whole-request envelopes;
// per-query failures are error envelopes in the results array, in
// position, without failing the neighbours.
func TestBatchErrors(t *testing.T) {
	e := buildGrid(t, 2)
	pub, ts := newServer(t, e, 0)

	resp, body := postFull(t, ts.URL+"/v1/query/batch", `{"queries":[]}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusBadRequest || code != ErrInvalidRequest {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}

	resp, body = postFull(t, ts.URL+"/v1/query/batch",
		`{"queries":[{"q":"count of mincost(@'n1','n4',2)","version":1}]}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusBadRequest || code != ErrInvalidRequest {
		t.Fatalf("per-item version: %d %s", resp.StatusCode, body)
	}

	resp, body = postFull(t, ts.URL+"/v1/query/batch", `{"version":999999,"queries":[{"q":"count of mincost(@'n1','n4',2)"}]}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusGone || code != ErrSnapshotEvicted {
		t.Fatalf("evicted version: %d %s", resp.StatusCode, body)
	}

	// One bad element among good ones: the good ones still answer.
	v := pub.Current().Version
	resp, body = postFull(t, ts.URL+"/v1/query/batch", fmt.Sprintf(`{"version":%d,"queries":[
		{"q":"count of mincost(@'n1','n4',2)"},
		{"q":"count of mincost(@'n1','n4',99)"},
		{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxdepth":-3}},
		{"q":"nodes of mincost(@'n1','n4',2)"}]}`, v))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("mixed batch: %d results", len(batch.Results))
	}
	var ok0 struct {
		Count *int `json:"count"`
	}
	if err := json.Unmarshal(batch.Results[0], &ok0); err != nil || ok0.Count == nil {
		t.Fatalf("results[0] = %s", batch.Results[0])
	}
	if code, _ := decodeEnvelope(t, batch.Results[1]); code != ErrNoProvenance {
		t.Fatalf("results[1] code = %q, want %q", code, ErrNoProvenance)
	}
	if code, _ := decodeEnvelope(t, batch.Results[2]); code != ErrInvalidOption {
		t.Fatalf("results[2] code = %q, want %q", code, ErrInvalidOption)
	}
	var ok3 struct {
		Nodes []string `json:"nodes"`
	}
	if err := json.Unmarshal(batch.Results[3], &ok3); err != nil || len(ok3.Nodes) == 0 {
		t.Fatalf("results[3] = %s", batch.Results[3])
	}
}

// TestQueryDeadlineAndCancellationStructured: an expired traversal
// deadline answers the structured query_timeout envelope; a request
// whose own context is already dead answers query_cancelled. Both
// abort before resolving the proof.
func TestQueryDeadlineAndCancellationStructured(t *testing.T) {
	testutil.CheckGoroutines(t)
	e := buildGrid(t, 4)
	pub, err := NewPublisher(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// ?timeout=1ns expires before the cold walk can finish the
	// corner-to-corner proof.
	resp, body := postFull(t, ts.URL+"/v1/query?timeout=1ns",
		`{"q":"lineage of mincost(@'n1','n16',6)"}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusGatewayTimeout || code != ErrQueryTimeout {
		t.Fatalf("expired deadline: %d %s", resp.StatusCode, body)
	}

	// A dead client context aborts with query_cancelled (nginx's 499).
	req := httptest.NewRequest("POST", "/v1/query",
		strings.NewReader(`{"q":"bases of mincost(@'n1','n16',6)"}`))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req.WithContext(ctx))
	if code, _ := decodeEnvelope(t, rec.Body.Bytes()); rec.Code != StatusClientClosedRequest || code != ErrQueryCancelled {
		t.Fatalf("cancelled request: %d %s", rec.Code, rec.Body.Bytes())
	}

	// The batch endpoint reports the same envelopes.
	resp, body = postFull(t, ts.URL+"/v1/query/batch?timeout=1ns",
		`{"queries":[{"q":"lineage of mincost(@'n1','n16',6)"}]}`)
	if code, _ := decodeEnvelope(t, body); resp.StatusCode != http.StatusGatewayTimeout || code != ErrQueryTimeout {
		t.Fatalf("batch expired deadline: %d %s", resp.StatusCode, body)
	}

	// Aborted traversals never cache partial results: the same query
	// without a deadline succeeds with a fresh full walk.
	code, body := post(t, ts.URL+"/v1/query", `{"q":"lineage of mincost(@'n1','n16',6)"}`)
	if code != http.StatusOK {
		t.Fatalf("query after aborts: %d %s", code, body)
	}
	var q struct {
		Truncated bool `json:"truncated"`
		Proof     json.RawMessage
	}
	if err := json.Unmarshal(body, &q); err != nil || q.Truncated {
		t.Fatalf("post-abort proof damaged: %v %s", err, body)
	}
}

// TestCancelledBatchStopsWalk is the acceptance check for cancellation
// plumbing: a client that disconnects mid-batch observably stops the
// server-side traversal. Every batch element is a distinct cold cache
// key, so the per-snapshot miss counter counts evaluated queries; after
// the disconnect it must go quiet far below the batch size.
func TestCancelledBatchStopsWalk(t *testing.T) {
	testutil.CheckGoroutines(t)
	e := buildGrid(t, 5)
	pub, ts := newServer(t, e, 0)
	snap := pub.Current()

	const items = 1000
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"version":%d,"queries":[`, snap.Version)
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		// Distinct never-pruning thresholds force a full cold traversal
		// of the deep corner-to-corner proof per element.
		fmt.Fprintf(&sb,
			`{"type":"lineage","tuple":"mincost(@'n1','n25',8)","options":{"threshold":%d}}`,
			10000+i)
	}
	sb.WriteString("]}")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query/batch",
		strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	// Cancel once the server is demonstrably mid-batch (a handful of
	// elements evaluated), not on a wall-clock guess.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if _, misses := snap.CacheCounters(); misses >= 20 {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
	}()

	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled batch request unexpectedly completed")
	}

	// The walk must stop: the evaluated-query counter goes quiet well
	// below the batch size.
	deadline := time.Now().Add(10 * time.Second)
	var last int64 = -1
	for {
		_, misses := snap.CacheCounters()
		if misses == last {
			break
		}
		last = misses
		if time.Now().After(deadline) {
			t.Fatalf("server still evaluating %ds after client disconnect (%d misses)", 10, misses)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if last >= items {
		t.Fatalf("server evaluated all %d batch elements despite the disconnect", items)
	}
	t.Logf("batch stopped after %d/%d elements", last, items)
}

// TestEvictionRacingPinnedReaders: under aggressive retention churn, a
// pinned query either returns the byte-identical body every time or a
// clean structured snapshot_evicted 410 — never a partial or mixed
// response. Run with -race to check the reader/publisher isolation.
func TestEvictionRacingPinnedReaders(t *testing.T) {
	e := buildGrid(t, 3)
	pub, err := NewPublisher(e, 2) // aggressive: only 2 versions pinnable
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(pub, Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)

	const rounds = 30
	done := make(chan struct{})
	go func() {
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

	var bodies sync.Map // version -> first 200 body seen
	var served, evicted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				v := pub.Current().Version
				resp, body := postFull(t, ts.URL+"/v1/query", fmt.Sprintf(
					`{"q":"lineage of mincost(@'n1','n9',4)","version":%d}`, v))
				switch resp.StatusCode {
				case http.StatusOK:
					if prev, loaded := bodies.LoadOrStore(v, string(body)); loaded && prev.(string) != string(body) {
						t.Errorf("version %d served two different bodies:\n%s\nvs\n%s",
							v, prev, body)
						return
					}
					mu.Lock()
					served++
					mu.Unlock()
				case http.StatusGone:
					code, msg := decodeEnvelope(t, body)
					if code != ErrSnapshotEvicted || !strings.Contains(msg, "not retained") {
						t.Errorf("410 body not a clean snapshot_evicted envelope: %s", body)
						return
					}
					mu.Lock()
					evicted++
					mu.Unlock()
				default:
					t.Errorf("pinned query: unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if served == 0 {
		t.Fatal("no pinned query ever succeeded")
	}
	t.Logf("served=%d evicted=%d", served, evicted)
}

// TestHTTPServerDropsStalledHeaders: a client that sends half a
// request line and stalls is disconnected once readHeaderTimeout
// expires, instead of holding its connection open forever.
func TestHTTPServerDropsStalledHeaders(t *testing.T) {
	t.Parallel()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer(http.NotFoundHandler())
	ts.Start()
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_, _ = io.WriteString(conn, "GET /v1/healthz HT")
	_ = conn.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); (ok && ne.Timeout()) || time.Since(start) < readHeaderTimeout/2 {
		t.Fatalf("stalled client dropped after %s (%v), want after about readHeaderTimeout %s",
			time.Since(start), err, readHeaderTimeout)
	}
}
