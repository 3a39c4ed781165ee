package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/simnet"
)

// span is one timed call into a layer, recorded from outside it. Times
// are nanoseconds since the tracer started. Parent links a layer call
// to the operation that caused it (an update, or a client query whose
// id travels in the reqIDHeader).
type span struct {
	ID     int64  `json:"id,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Eng    int    `json:"eng"` // engine, replica or cluster member index
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`   // gateway shard hops
	Tag    string `json:"tag,omitempty"` // cache verdict, exchange phase
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// reqIDHeader carries a traced client query's span id to the gateway
// middleware so both spans of one request share an identifier.
const reqIDHeader = "X-Bench-Req"

// clock splits a measurement window into alternating untraced and
// traced blocks (all untraced when tracing is off). An operation
// belongs to the block it starts in.
type clock struct {
	start  time.Time
	block  time.Duration
	traced bool
}

const (
	modeUntraced = 0
	modeTraced   = 1
)

func (c clock) modeAt(t time.Time) int {
	if !c.traced || t.Before(c.start) {
		return modeUntraced
	}
	return int(t.Sub(c.start)/c.block) % 2
}

// modeSeconds returns how much of the window offsets [from, to) fell in
// each mode.
func (c clock) modeSeconds(from, to time.Duration) [2]float64 {
	var out [2]float64
	if !c.traced {
		out[modeUntraced] = (to - from).Seconds()
		return out
	}
	for t := from; t < to; {
		next := (t/c.block + 1) * c.block
		if next > to {
			next = to
		}
		out[int(t/c.block)%2] += (next - t).Seconds()
		t = next
	}
	return out
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// heapMB is the memory the span buffer holds: the only heap a traced
// run keeps that an untraced one does not.
func (t *tracer) heapMB() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(cap(t.spans)) * float64(unsafe.Sizeof(span{})) / (1 << 20)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// engineTap records the layers one engine drives during an update. All
// its methods run on the goroutine executing that engine's update (the
// engine's scheduler thread), so its fields need no locking. parent is
// 0 outside traced updates, which turns every wrapper into a pass-through.
type engineTap struct {
	tr     *tracer
	eng    int
	parent int64
	mark   int64 // end of the last observer callback (epoch boundary)
}

// begin opens a traced update span and returns its id; end closes it.
func (et *engineTap) begin(traced bool) int64 {
	if !traced {
		et.parent = 0
		return 0
	}
	et.parent = et.tr.newID()
	et.mark = et.tr.now()
	return et.mark
}

func (et *engineTap) end(start int64) {
	if et.parent == 0 {
		return
	}
	et.tr.add(span{ID: et.parent, Name: "update", Eng: et.eng, Start: start, End: et.tr.now()})
	et.parent = 0
}

// callback times one observer callback: the interval since the previous
// callback is one epoch of compute (plus barrier waits when clustered),
// the callback itself is publish work under the given span name.
func (et *engineTap) callback(name, tag string, fn func()) {
	if et.parent == 0 {
		fn()
		return
	}
	t := et.tr.now()
	et.tr.add(span{Parent: et.parent, Name: "engine.epoch", Eng: et.eng, Start: et.mark, End: t})
	fn()
	e := et.tr.now()
	et.tr.add(span{Parent: et.parent, Name: name, Eng: et.eng, Start: t, End: e, Tag: tag})
	et.mark = e
}

// observe wraps an epoch observer (engine.Engine.SetEpochObserver)
// around a publisher's Publish.
func (et *engineTap) observe(publish func()) func() {
	return func() { et.callback("server.publish", "", publish) }
}

// distTap wraps a distributed snapshot observer (Probe/Commit).
type distTap struct {
	et    *engineTap
	inner engine.DistObserver
}

func (d distTap) Probe() bool {
	if d.et.parent == 0 {
		return d.inner.Probe()
	}
	s := d.et.tr.now()
	changed := d.inner.Probe()
	d.et.tr.add(span{Parent: d.et.parent, Name: "server.probe", Eng: d.et.eng, Start: s, End: d.et.tr.now()})
	return changed
}

func (d distTap) Commit(changed bool) {
	name, tag := "cluster.commit", "unchanged"
	if changed {
		name, tag = "server.publish", "changed"
	}
	d.et.callback(name, tag, func() { d.inner.Commit(changed) })
}

// tapTransport wraps a cluster member's transport: every Exchange is a
// barrier wait, tagged with its protocol phase.
type tapTransport struct {
	simnet.Transport
	et *engineTap
}

func (t tapTransport) Exchange(step uint64, phase uint8, payload []byte) ([][]byte, error) {
	if t.et.parent == 0 {
		return t.Transport.Exchange(step, phase, payload)
	}
	s := t.et.tr.now()
	reps, err := t.Transport.Exchange(step, phase, payload)
	tag := "frames"
	if phase != 1 {
		tag = "propose"
	}
	t.et.tr.add(span{Parent: t.et.parent, Name: "nettransport.exchange", Eng: t.et.eng,
		Start: s, End: t.et.tr.now(), Tag: tag})
	return reps, err
}

// tapHandler is HTTP middleware recording one span per request that
// record accepts, with the response's X-Shard-Hops in N and X-Cache in
// Tag, parented to the client span named by reqIDHeader.
func tapHandler(tr *tracer, name string, eng int, h http.Handler, record func(*http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !record(r) {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.now()
		h.ServeHTTP(w, r)
		hops, _ := strconv.Atoi(w.Header().Get("X-Shard-Hops"))
		parent, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		tr.add(span{Parent: parent, Name: name, Eng: eng, Start: s, End: tr.now(),
			N: int64(hops), Tag: w.Header().Get("X-Cache")})
	})
}

// spanIndex groups spans by name for metric derivation.
type spanIndex map[string][]span

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{}
	for _, s := range spans {
		ix[s.Name] = append(ix[s.Name], s)
	}
	return ix
}

// ms returns the durations in ms of the named spans that pass keep.
func (ix spanIndex) ms(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range ix[name] {
		if keep == nil || keep(s) {
			out = append(out, s.ms())
		}
	}
	return out
}

func onEng(e int) func(span) bool { return func(s span) bool { return s.Eng == e } }

// writeSpans stores a traced run's spans and notes where.
func writeSpans(cfg config, tr *tracer, oc *outcome) error {
	path, err := tr.write(cfg.Out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	oc.notes = append(oc.notes, "spans: "+path)
	return nil
}
