package main

import "time"

// e2eNames lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order, with their units.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"updates_per_s", "updates/s"},
	{"update_ms_p50", "ms"},
	{"update_ms_p90", "ms"},
	{"queries_per_s", "queries/s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p99", "ms"},
	{"fresh_ms_p50", "ms"},
	{"fresh_ms_p90", "ms"},
	{"peak_heap_mb", "MB"},
	{"maint_kb_per_update", "KB"},
}

// layerNames lists the per-layer metrics every traced run reports, with
// their units. Layers a workload never reaches report 0.
var layerNames = []struct{ name, unit string }{
	{"eval.firings_per_update", "count"},
	{"eval.deltas_per_update", "count"},
	{"engine.epochs_per_update", "count"},
	{"engine.epoch_ms_p50", "ms"},
	{"engine.compute_share", "share"},
	{"simnet.msgs_per_update", "count"},
	{"provenance.entries", "count"},
	{"server.publish_ms_p50", "ms"},
	{"server.publish_ms_p99", "ms"},
	{"server.publish_share", "share"},
	{"server.versions_per_update", "count"},
	{"provstore.bytes_per_version", "B"},
	{"provstore.segments", "count"},
	{"provstore.rebuild_ms", "ms"},
	{"server.prov_reads_per_query", "count"},
	{"server.prov_read_ms_p50", "ms"},
	{"gateway.serve_ms_p50", "ms"},
	{"gateway.hit_ms_p50", "ms"},
	{"gateway.miss_ms_p50", "ms"},
	{"gateway.cache_hit_ratio", "share"},
	{"gateway.hops_per_query", "count"},
	{"provquery.msgs_per_query", "count"},
	{"provquery.kb_per_query", "KB"},
	{"client.overhead_ms_p50", "ms"},
	{"cluster.rounds_per_update", "count"},
	{"cluster.frames_wait_share", "share"},
	{"cluster.propose_wait_share", "share"},
	{"cluster.commit_ms_p50", "ms"},
	{"nettransport.kb_per_update", "KB"},
	{"nettransport.frames_per_update", "count"},
}

// overheadPrefix names the traced-minus-untraced value of each
// end-to-end metric in a traced run's output.
const overheadPrefix = "trace_overhead."

// modeAcc collects the end-to-end samples of one clock mode.
type modeAcc struct {
	updMs, freshMs, qryMs []float64
	updAt, qryAt          []float64 // start offsets in the window, seconds
	maintBytes            float64   // modeled maintenance traffic of the updates
}

// rateSlices is how many equal slices of the window a rate is measured
// over; the median slice rate is reported, so a short stall of the host
// moves one slice, not the result.
const rateSlices = 5

// e2e accumulates a run's end-to-end samples per mode.
type e2e struct {
	clk    clock
	end    time.Time
	setupS float64
	heapMB float64 // retained heap at the end of the window
	spanMB float64 // of which the span buffer (traced runs)
	m      [2]modeAcc
	host   hostUsage          // read when the window starts
	window map[string]float64 // host usage over the window, for the run record
}

func newE2E(clk clock, setupS float64) *e2e {
	return &e2e{clk: clk, setupS: setupS, host: readHostUsage()}
}

// stop ends the window at end, a point on the window's clock, and
// records the host's usage over it.
func (e *e2e) stop(end time.Time) {
	e.end = end
	e.window = readHostUsage().since(e.host)
}

// rate is the median over the window's slices of operations started
// per second of the given mode.
func (e *e2e) rate(at []float64, mode int) float64 {
	window := e.end.Sub(e.clk.start)
	var rates []float64
	for i := 0; i < rateSlices; i++ {
		from, to := window*time.Duration(i)/rateSlices, window*time.Duration(i+1)/rateSlices
		n := 0
		for _, t := range at {
			if s := time.Duration(t * float64(time.Second)); s >= from && s < to {
				n++
			}
		}
		rates = append(rates, ratio(float64(n), e.clk.modeSeconds(from, to)[mode]))
	}
	return median(rates)
}

func (e *e2e) metrics(mode int) map[string]metric {
	a := e.m[mode]
	vals := map[string]float64{
		"setup_s":             e.setupS,
		"updates_per_s":       e.rate(a.updAt, mode),
		"update_ms_p50":       quantile(a.updMs, 0.50),
		"update_ms_p90":       quantile(a.updMs, 0.90),
		"queries_per_s":       e.rate(a.qryAt, mode),
		"query_ms_p50":        quantile(a.qryMs, 0.50),
		"query_ms_p99":        quantile(a.qryMs, 0.99),
		"fresh_ms_p50":        quantile(a.freshMs, 0.50),
		"fresh_ms_p90":        quantile(a.freshMs, 0.90),
		"peak_heap_mb":        e.heapMB,
		"maint_kb_per_update": ratio(a.maintBytes/1024, float64(len(a.updAt))),
	}
	out := map[string]metric{}
	for _, n := range e2eNames {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// overhead is the traced-minus-untraced difference of every end-to-end
// metric except set-up, which runs before the wrappers are installed.
func (e *e2e) overhead() map[string]metric {
	un, tr := e.metrics(modeUntraced), e.metrics(modeTraced)
	out := map[string]metric{}
	for _, n := range e2eNames {
		if n.name == "setup_s" {
			continue
		}
		out[overheadPrefix+n.name] = metric{tr[n.name].Value - un[n.name].Value, n.unit}
	}
	// Both modes share one heap; the span buffer is the traced part.
	out[overheadPrefix+"peak_heap_mb"] = metric{e.spanMB, "MB"}
	return out
}

// layerCounters are public counters read around traced updates, plus
// the serve-only whole-window counters.
type layerCounters struct {
	updates         int     // traced updates
	firings, deltas float64 // eval.Runtime.Statistics deltas
	msgs            float64 // simnet.Network.Totals message deltas
	versions        float64 // published versions minted
	rounds          float64 // engine.ClusterStats.Rounds deltas
	framesOut       float64 // engine.ClusterStats.FramesOut deltas, all members
	bytesOut        float64 // engine.ClusterStats.BytesOut deltas, all members
	provEntries     float64 // prov + exec rows at the end of the run
	storeBytes      float64 // provstore growth over the window
	storeVersions   float64 // versions appended over the window
	segments        float64
	rebuildMs       []float64 // per shard: first read of an evicted version
	provReads       float64   // shard prov reads over the window
	queries         float64   // gateway queries over the window
	queryMsgs       float64   // modeled walk cost from traced responses
	queryBytes      float64
	queryStatsCount float64
}

// layerMetrics derives every per-layer metric from the spans and the
// counters. Engine 0 (the single engine, replica 0, or member 0) gives
// the time split of an update.
func layerMetrics(spans []span, lc layerCounters) map[string]metric {
	ix := indexSpans(spans)
	e0 := onEng(0)
	upd := sum(ix.ms("update", e0))
	publish := ix.ms("server.publish", e0)
	probe := sum(ix.ms("server.probe", e0))
	frames := sum(ix.ms("nettransport.exchange", func(s span) bool { return s.Eng == 0 && s.Tag == "frames" }))
	propose := sum(ix.ms("nettransport.exchange", func(s span) bool { return s.Eng == 0 && s.Tag == "propose" }))
	commits := append(ix.ms("cluster.commit", e0), ix.ms("server.publish", func(s span) bool { return s.Eng == 0 && s.Tag != "" })...)
	nUpd := float64(lc.updates)

	gw := ix["gateway.serve"]
	var hits, misses, hops float64
	gwByParent := map[int64]span{}
	for _, s := range gw {
		switch s.Tag {
		case "HIT":
			hits++
		case "MISS":
			misses++
		}
		hops += float64(s.N)
		if s.Parent != 0 {
			gwByParent[s.Parent] = s
		}
	}
	var overhead []float64
	for _, c := range ix["client.query"] {
		if g, ok := gwByParent[c.ID]; ok {
			overhead = append(overhead, c.ms()-g.ms())
		}
	}

	vals := map[string]float64{
		"eval.firings_per_update":        ratio(lc.firings, nUpd),
		"eval.deltas_per_update":         ratio(lc.deltas, nUpd),
		"engine.epochs_per_update":       ratio(float64(len(ix.ms("engine.epoch", e0))), nUpd),
		"engine.epoch_ms_p50":            median(ix.ms("engine.epoch", e0)),
		"engine.compute_share":           ratio(upd-sum(publish)-probe-frames-propose, upd),
		"simnet.msgs_per_update":         ratio(lc.msgs, nUpd),
		"provenance.entries":             lc.provEntries,
		"server.publish_ms_p50":          quantile(publish, 0.50),
		"server.publish_ms_p99":          quantile(publish, 0.99),
		"server.publish_share":           ratio(sum(publish)+probe, upd),
		"server.versions_per_update":     ratio(lc.versions, nUpd),
		"provstore.bytes_per_version":    ratio(lc.storeBytes, lc.storeVersions),
		"provstore.segments":             lc.segments,
		"provstore.rebuild_ms":           median(lc.rebuildMs),
		"server.prov_reads_per_query":    ratio(lc.provReads, lc.queries),
		"server.prov_read_ms_p50":        median(ix.ms("server.prov_read", nil)),
		"gateway.serve_ms_p50":           median(ix.ms("gateway.serve", nil)),
		"gateway.hit_ms_p50":             median(ix.ms("gateway.serve", func(s span) bool { return s.Tag == "HIT" })),
		"gateway.miss_ms_p50":            median(ix.ms("gateway.serve", func(s span) bool { return s.Tag == "MISS" })),
		"gateway.cache_hit_ratio":        ratio(hits, hits+misses),
		"gateway.hops_per_query":         ratio(hops, float64(len(gw))),
		"provquery.msgs_per_query":       ratio(lc.queryMsgs, lc.queryStatsCount),
		"provquery.kb_per_query":         ratio(lc.queryBytes/1024, lc.queryStatsCount),
		"client.overhead_ms_p50":         median(overhead),
		"cluster.rounds_per_update":      ratio(lc.rounds, nUpd),
		"cluster.frames_wait_share":      ratio(frames, upd),
		"cluster.propose_wait_share":     ratio(propose, upd),
		"cluster.commit_ms_p50":          median(commits),
		"nettransport.kb_per_update":     ratio(lc.bytesOut/1024, nUpd),
		"nettransport.frames_per_update": ratio(lc.framesOut, nUpd),
	}
	out := map[string]metric{}
	for _, n := range layerNames {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// finish turns a run's accumulators into its reported metrics (the
// end-to-end set untraced, the per-layer set plus tracing overhead
// traced) and its run record: the workload's extra figures and the
// host's usage over the window.
func (oc *outcome) finish(acc *e2e, tr *tracer, lc layerCounters, extra map[string]float64) {
	oc.extra = extra
	for k, v := range acc.window {
		oc.extra[k] = v
	}
	if tr == nil {
		oc.metrics = acc.metrics(modeUntraced)
		return
	}
	acc.spanMB = tr.heapMB()
	oc.metrics = layerMetrics(tr.snapshot(), lc)
	for k, v := range acc.overhead() {
		oc.metrics[k] = v
	}
}
