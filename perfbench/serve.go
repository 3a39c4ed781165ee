package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/provstore"
	"repro/internal/server"
)

var queryTypes = []string{"lineage", "bases", "nodes", "count"}

// liveClock publishes the run's clock to HTTP middleware once the
// window starts.
type liveClock struct{ p atomic.Pointer[clock] }

func (l *liveClock) traced() bool {
	c := l.p.Load()
	return c != nil && c.modeAt(time.Now()) == modeTraced
}

// replica is one shard process of the serve deployment: a full engine
// replica, its durable snapshot store, its shard publisher and its HTTP
// server.
type replica struct {
	eng   *engine.Engine
	store *provstore.Store
	pub   *server.Publisher
	srv   *server.Server
	http  *http.Server
	url   string
	tap   *engineTap
}

type serveDep struct {
	dir    string
	reps   []*replica
	gwHTTP *http.Server
	gwURL  string
	wg     sync.WaitGroup // HTTP serve loops
}

// listen serves h on a loopback port and returns its base URL.
func (d *serveDep) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http serve: %v\n", err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// buildServe boots the sharded durable deployment and its gateway. With
// tr set, shard and gateway handlers carry the tracing middleware.
func buildServe(g grid, dir string, tr *tracer, live *liveClock) (*serveDep, error) {
	d := &serveDep{dir: dir}
	for i := 0; i < serveShards; i++ {
		r, err := d.bootShard(g, i, serveShards, tr, live)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		d.reps = append(d.reps, r)
	}
	urls := make([]string, len(d.reps))
	for i, r := range d.reps {
		urls[i] = r.url
	}
	gw, err := gateway.New(context.Background(), urls, gateway.WithInfo(server.Info{Protocol: "mincost"}))
	if err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = gw
	if tr != nil {
		h = tapHandler(tr, "gateway.serve", 0, gw, func(r *http.Request) bool { return r.Header.Get(reqIDHeader) != "" })
	}
	if d.gwHTTP, d.gwURL, err = d.listen(h); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *serveDep) bootShard(g grid, idx, total int, tr *tracer, live *liveClock) (*replica, error) {
	eng, err := newMinCost(g)
	if err != nil {
		return nil, err
	}
	if err := converge(eng, g); err != nil {
		return nil, err
	}
	spec := server.ShardSpec{Index: idx, Total: total}
	all := eng.Nodes()
	store, err := provstore.Open(filepath.Join(d.dir, fmt.Sprintf("shard-%d", idx)), provstore.Options{
		AllNodes: all,
		Owned:    spec.OwnedNodes(all),
		Shard:    provstore.ShardInfo{Index: idx, Total: total},
	})
	if err != nil {
		return nil, err
	}
	pub, err := server.NewPublisherWithOptions(eng, server.PublisherOptions{Shard: spec, Store: store})
	if err != nil {
		store.Close()
		return nil, err
	}
	r := &replica{eng: eng, store: store, pub: pub, srv: server.New(pub, server.Info{Protocol: "mincost"}), tap: &engineTap{tr: tr, eng: idx}}
	var h http.Handler = r.srv
	if tr != nil {
		eng.SetEpochObserver(r.tap.observe(func() { pub.Publish() }))
		h = tapHandler(tr, "server.prov_read", idx, r.srv, func(req *http.Request) bool {
			return req.URL.Path == "/v1/prov/read" && live.traced()
		})
	}
	if r.http, r.url, err = d.listen(h); err != nil {
		pub.Detach()
		store.Close()
		return nil, err
	}
	return r, nil
}

// close stops every server, detaches the publishers, closes the stores
// and removes their files.
func (d *serveDep) close() {
	if d.gwHTTP != nil {
		d.gwHTTP.Close()
	}
	for _, r := range d.reps {
		r.http.Close()
	}
	d.wg.Wait()
	for _, r := range d.reps {
		r.pub.Detach()
		if err := r.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: store close: %v\n", err)
		}
	}
	os.RemoveAll(d.dir)
}

// apply runs flap update k on every replica in parallel (each replica
// is its own shard process's simulation thread).
func (d *serveDep) apply(u update, traced bool) error {
	errs := make([]error, len(d.reps))
	var wg sync.WaitGroup
	for i, r := range d.reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			var start int64
			if r.tap.tr != nil {
				start = r.tap.begin(traced)
			}
			errs[i] = u.apply(r.eng)
			if r.tap.tr != nil {
				r.tap.end(start)
			}
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (d *serveDep) storeFootprint() (bytes, segments float64) {
	filepath.WalkDir(d.dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			bytes += float64(info.Size())
		}
		if strings.HasSuffix(path, ".seg") {
			segments++
		}
		return nil
	})
	return bytes, segments
}

func (d *serveDep) provReads() float64 {
	t := 0.0
	for _, r := range d.reps {
		t += float64(r.srv.ProvReads())
	}
	return t
}

// ---- requests and answers ---------------------------------------------

func mincostLiteral(a, b string, c int64) string {
	return fmt.Sprintf("mincost(@'%s','%s',%d)", a, b, c)
}

func queryBody(typ, lit string, version uint64) []byte {
	b, _ := json.Marshal(server.QueryRequest{Type: typ, Tuple: lit, Version: version})
	return b
}

type digest [sha256.Size]byte

// post sends one /v1/query and returns the status and body digest; with
// stats set it also decodes the modeled walk cost.
func post(hc *http.Client, url string, body []byte, reqID int64, stats *server.QueryStatsJSON) (int, digest, error) {
	req, err := http.NewRequest("POST", url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, digest{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, digest{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, digest{}, err
	}
	if stats != nil {
		var qr server.QueryResponse
		if json.Unmarshal(b, &qr) == nil {
			*stats = qr.Stats
		}
	}
	return resp.StatusCode, sha256.Sum256(b), nil
}

// refAnswer evaluates a request on the unsharded reference replica.
func refAnswer(h http.Handler, body []byte) (int, digest) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	return rec.Code, sha256.Sum256(rec.Body.Bytes())
}

// readerTargets maps each Zipf rank to a converged mincost tuple. Every
// (source, destination) pair of the grid gets a rank in a fixed order,
// and each reader draws the same rank and query-type sequence whatever
// the seed; the seed then moves each rank's pair to a random position
// with the same offset. A pair's proof has the same shape wherever it
// sits, so every seed asks the same walks of the system while the
// tuples, their shards and the cache keys all change with the seed.
// Drawing ranks from the seed instead made queries_per_s differ by
// 40% between seeds: a few combinatorial proofs dominate a run.
func readerTargets(g grid, rng *rand.Rand) []string {
	n := g.side
	var pairs [][2]int
	for i := 0; i < n*n; i++ {
		for j := 0; j < n*n; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	fixed := rand.New(rand.NewSource(1))
	fixed.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	place := func(d int) int { // a start row or column that keeps start+d on the grid
		lo := 0
		if d < 0 {
			lo = -d
		}
		if d < 0 {
			d = -d
		}
		return lo + rng.Intn(n-d)
	}
	abs := func(d int) int {
		if d < 0 {
			return -d
		}
		return d
	}
	out := make([]string, len(pairs))
	for k, p := range pairs {
		dr, dc := p[1]/n-p[0]/n, p[1]%n-p[0]%n
		r, c := place(dr), place(dc)
		a, b := g.names[r*n+c], g.names[(r+dr)*n+c+dc]
		out[k] = mincostLiteral(a, b, int64(abs(dr)+abs(dc)))
	}
	return out
}

// referenceAnswers evaluates every distinct query the readers asked on
// the reference, one worker per CPU.
func referenceAnswers(ref http.Handler, logs []*readerLog, body func(key int) []byte) (map[int]digest, error) {
	var keys []int
	seen := map[int]bool{}
	for _, l := range logs {
		for key := range l.answers {
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	answers := make([]digest, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				b := body(keys[i])
				code, d := refAnswer(ref, b)
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("reference cannot answer %s: status %d", b, code)
				}
				answers[i] = d
			}
		}()
	}
	wg.Wait()
	out := make(map[int]digest, len(keys))
	for i, key := range keys {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[key] = answers[i]
	}
	return out, nil
}

// readerLog is one reader's record.
type readerLog struct {
	qryMs   [2][]float64
	qryAt   [2][]float64   // start offsets in the window, seconds
	answers map[int]digest // query key -> body digest of its first answer
	uses    map[int]int    // query key -> times asked
	failed  int
	notes   []string
	stats   server.QueryStatsJSON // summed over traced queries
	nStats  int
}

// ask sends one reader query and records it.
func (l *readerLog) ask(hc *http.Client, url string, tr *tracer, clk clock, sent time.Time, key int, body []byte) {
	mode := clk.modeAt(sent)
	var id, s0 int64
	var st *server.QueryStatsJSON
	if mode == modeTraced {
		id, st, s0 = tr.newID(), &server.QueryStatsJSON{}, tr.now()
	}
	code, ans, err := post(hc, url, body, id, st)
	done := time.Now()
	if id != 0 {
		tr.add(span{ID: id, Name: "client.query", Start: s0, End: tr.now()})
	}
	if id != 0 {
		l.stats.Messages += st.Messages
		l.stats.Bytes += st.Bytes
		l.nStats++
	}
	l.qryAt[mode] = append(l.qryAt[mode], done.Sub(clk.start).Seconds())
	l.qryMs[mode] = append(l.qryMs[mode], ms(done.Sub(sent)))
	if err != nil || code != http.StatusOK {
		l.failed++
		if len(l.notes) < 5 {
			l.notes = append(l.notes, fmt.Sprintf("query %s: status %d err %v", body, code, err))
		}
		return
	}
	if prev, ok := l.answers[key]; ok && prev != ans {
		l.failed++
		return
	}
	l.answers[key] = ans
	l.uses[key]++
}

type probeLog struct {
	k       int
	version uint64
	body    []byte
	answer  digest
}

func runServe(cfg config) (*outcome, error) {
	g := newGrid(cfg.ServeSide)
	root := filepath.Join(cfg.Out, fmt.Sprintf("stores-%d", os.Getpid()))
	defer os.RemoveAll(root)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	live := &liveClock{}
	setupN := 0
	dep, setupS, err := medianSetup(cfg.Setups, func() (*serveDep, error) {
		setupN++
		return buildServe(g, filepath.Join(root, fmt.Sprintf("setup-%d", setupN)), tr, live)
	}, func(d *serveDep) { d.close() })
	if err != nil {
		return nil, err
	}
	defer dep.close()

	v0 := dep.reps[0].pub.Current().Version
	for i, r := range dep.reps {
		if v := r.pub.Current().Version; v != v0 {
			return nil, fmt.Errorf("shard %d converged at version %d, shard 0 at %d", i, v, v0)
		}
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	targets := readerTargets(g, master)
	script := newFlapScript(master.Int63(), g)

	// Warm-up, outside the window: push V0 out of the in-memory ring and
	// have every shard rebuild it from its store once, as a long-running
	// durable deployment already has. The publisher keeps the rebuilt
	// snapshot in its in-memory disk cache, so the window's pinned reads
	// are served from there; the rebuild itself, the cold read path, is
	// timed here and reported as provstore.rebuild_ms.
	warm := 0
	var warmMs []float64
	for ; dep.reps[0].pub.Current().Version <= v0+server.DefaultRetain; warm++ {
		t0 := time.Now()
		if err := dep.apply(script.at(warm), false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warmMs = append(warmMs, ms(time.Since(t0)))
	}
	var lc layerCounters
	for i, r := range dep.reps {
		t0 := time.Now()
		if _, ok := r.pub.At(v0); !ok {
			return nil, fmt.Errorf("shard %d cannot serve version %d from its store", i, v0)
		}
		lc.rebuildMs = append(lc.rebuildMs, ms(time.Since(t0)))
	}

	// One kept-alive connection per reader plus the writer's probe.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveReaders + 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	runtime.GC()
	clk := clock{start: time.Now(), block: time.Duration(cfg.TraceBlock * float64(time.Second)), traced: cfg.Trace}
	live.p.Store(&clk)
	deadline := clk.start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	bytes0, _ := dep.storeFootprint()
	v1 := dep.reps[0].pub.Current().Version
	reads0 := dep.provReads()

	// Closed-loop readers: each sends its next query when the previous
	// one is answered.
	logs := make([]*readerLog, serveReaders)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &readerLog{answers: map[int]digest{}, uses: map[int]int{}}
		wg.Add(1)
		go func(i int, l *readerLog) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(targets)-1))
			for time.Now().Before(deadline) {
				key := int(zipf.Uint64())*len(queryTypes) + rng.Intn(len(queryTypes))
				l.ask(hc, dep.gwURL, tr, clk, time.Now(), key, queryBody(queryTypes[key%len(queryTypes)], targets[key/len(queryTypes)], v0))
			}
		}(i, logs[i])
	}

	// The open-loop writer: update k is due at k/rate; its latency and
	// freshness are timed from that due time.
	oc := &outcome{}
	acc := newE2E(clk, setupS)
	var probes []probeLog
	var lateness []float64
	period := time.Second / serveWriterHz
	k := 0
	for ; ; k++ {
		due := clk.start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		lateness = append(lateness, ms(t0.Sub(due)))
		mode := clk.modeAt(due)
		traced := mode == modeTraced
		before := dep.reps[0].pub.Current().Version
		var c0 engineCounters
		if traced {
			c0 = readCounters(dep.reps[0].eng)
		}
		m0 := maintBytes(dep.reps[0].eng)
		op := warm + k
		err := dep.apply(script.at(op), traced)
		t1 := time.Now()
		oc.attempted += 2
		if err != nil {
			oc.failed += 2
			oc.notes = append(oc.notes, fmt.Sprintf("update %d: %v", op, err))
			break
		}
		version := dep.reps[0].pub.Current().Version
		for i, r := range dep.reps[1:] {
			if v := r.pub.Current().Version; v != version {
				oc.failed++
				oc.notes = append(oc.notes, fmt.Sprintf("update %d: shard %d at version %d, shard 0 at %d", op, i+1, v, version))
			}
		}
		e, _ := script.op(op)
		body := queryBody("lineage", mincostLiteral(e.A, e.B, script.wantCost(op)), version)
		code, ans, perr := post(hc, dep.gwURL, body, 0, nil)
		t2 := time.Now()
		if perr != nil || code != http.StatusOK {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("probe after update %d: status %d err %v", op, code, perr))
		} else {
			probes = append(probes, probeLog{k: op, version: version, body: body, answer: ans})
		}
		a := &acc.m[mode]
		// Completions, not due times: the schedule alone would make
		// the rate a constant.
		a.updAt = append(a.updAt, t1.Sub(clk.start).Seconds())
		a.updMs = append(a.updMs, ms(t1.Sub(due)))
		a.freshMs = append(a.freshMs, ms(t2.Sub(due)))
		a.maintBytes += maintBytes(dep.reps[0].eng) - m0
		if traced {
			c1 := readCounters(dep.reps[0].eng)
			lc.updates++
			lc.firings += c1.firings - c0.firings
			lc.deltas += c1.deltas - c0.deltas
			lc.msgs += c1.msgs - c0.msgs
			lc.versions += float64(version - before)
		}
	}
	wg.Wait()
	acc.stop(time.Now())
	acc.heapMB = retainedHeapMB()
	live.p.Store(nil)

	bytes1, segments := dep.storeFootprint()
	lc.storeBytes = bytes1 - bytes0
	lc.storeVersions = float64(dep.reps[0].pub.Current().Version - v1)
	lc.segments = segments
	lc.provReads = dep.provReads() - reads0
	lc.provEntries = provEntries(dep.reps[0].eng, func(string) bool { return true })

	// Reader answers: every distinct query byte-for-byte against an
	// unsharded reference replica at V0, built after the window.
	check0 := time.Now()
	ref, err := buildFlap(g)
	if err != nil {
		return nil, err
	}
	defer ref.pub.Detach()
	refSrv := server.New(ref.pub, server.Info{Protocol: "mincost"})
	if v := ref.pub.Current().Version; v != v0 {
		return nil, fmt.Errorf("reference converged at version %d, shards at %d", v, v0)
	}
	refCache, err := referenceAnswers(refSrv, logs, func(key int) []byte {
		return queryBody(queryTypes[key%len(queryTypes)], targets[key/len(queryTypes)], v0)
	})
	if err != nil {
		return nil, err
	}
	for _, l := range logs {
		oc.attempted += len(l.qryAt[0]) + len(l.qryAt[1])
		oc.failed += l.failed
		oc.notes = append(oc.notes, l.notes...)
		for key, ans := range l.answers {
			if ans != refCache[key] {
				oc.failed += l.uses[key]
				oc.notes = append(oc.notes, fmt.Sprintf("query key %d: gateway answer differs from the reference", key))
			}
		}
		acc.m[modeUntraced].qryMs = append(acc.m[modeUntraced].qryMs, l.qryMs[modeUntraced]...)
		acc.m[modeTraced].qryMs = append(acc.m[modeTraced].qryMs, l.qryMs[modeTraced]...)
		acc.m[modeUntraced].qryAt = append(acc.m[modeUntraced].qryAt, l.qryAt[modeUntraced]...)
		acc.m[modeTraced].qryAt = append(acc.m[modeTraced].qryAt, l.qryAt[modeTraced]...)
		lc.queryMsgs += float64(l.stats.Messages)
		lc.queryBytes += float64(l.stats.Bytes)
		lc.queryStatsCount += float64(l.nStats)
	}
	lc.queries = float64(len(acc.m[0].qryAt)+len(acc.m[1].qryAt)) + float64(k)

	// Freshness probes: replay the writer's updates on the reference and
	// compare each probe with the reference's answer at its version.
	next := 0
	for _, p := range probes {
		for ; next <= p.k; next++ {
			if err := script.at(next).apply(ref.eng); err != nil {
				return nil, fmt.Errorf("reference replay: %w", err)
			}
		}
		if v := ref.pub.Current().Version; v != p.version {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("probe %d: gateway version %d, reference %d", p.k, p.version, v))
			continue
		}
		if code, want := refAnswer(refSrv, p.body); code != http.StatusOK || want != p.answer {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("probe %d: gateway answer differs from the reference", p.k))
		}
	}

	if tr != nil {
		if err := writeSpans(cfg, tr, oc); err != nil {
			return nil, err
		}
	}
	oc.finish(acc, tr, lc, map[string]float64{
		"grid_side":            float64(g.side),
		"shards":               serveShards,
		"readers":              serveReaders,
		"zipf_s":               serveZipfS,
		"writer_hz":            serveWriterHz,
		"writer_updates":       float64(k),
		"warmup_updates":       float64(warm),
		"warmup_update_ms_max": quantile(warmMs, 1),
		"v0_rebuild_ms_p50":    median(lc.rebuildMs),
		"v0_rebuild_ms_max":    quantile(lc.rebuildMs, 1),
		"writer_late_ms_p50":   quantile(lateness, 0.5),
		"writer_late_ms_max":   quantile(lateness, 1),
		"distinct_queries":     float64(len(refCache)),
		"converged_version":    float64(v0),
		"final_version":        float64(dep.reps[0].pub.Current().Version),
		"gateway_queries":      lc.queries,
		"reference_check_s":    time.Since(check0).Seconds(),
	})
	return oc, nil
}
