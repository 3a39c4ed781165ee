package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/nettransport"
	"repro/internal/protocols"
	"repro/internal/rel"
	"repro/internal/server"
)

// grid is a side x side unit-cost grid topology.
type grid struct {
	side  int
	names []string
	edges []protocols.Edge
}

func newGrid(side int) grid {
	return grid{side: side, names: protocols.NodeNames(side * side), edges: protocols.GridTopology(side, side, 1)}
}

// flapScript is the seeded update sequence shared by every workload:
// update 2i removes a grid edge and update 2i+1 adds it back. The edges
// come from a fixed base sequence, each moved by one of the grid's
// eight symmetries drawn from the seed. A symmetric image of an edge
// costs exactly as much to flap, so every seed asks the same work of
// the engines while the edges, nodes and shards involved all change.
// The engines only ever see the generated edges.
type flapScript struct {
	side  int
	names []string
	pos   map[string]int // node -> grid position
	base  *rand.Rand     // fixed: which edge shape comes next
	sym   *rand.Rand     // seeded: where it lands
	edges []protocols.Edge
	seq   []protocols.Edge
}

func newFlapScript(seed int64, g grid) *flapScript {
	pos := map[string]int{}
	for i, name := range g.names {
		pos[name] = i
	}
	return &flapScript{side: g.side, names: g.names, pos: pos, edges: g.edges,
		base: rand.New(rand.NewSource(1)), sym: rand.New(rand.NewSource(seed))}
}

// symmetric maps grid position (r, c) through symmetry s of the square.
func symmetric(s, n, r, c int) (int, int) {
	if s&4 != 0 {
		r, c = c, r
	}
	if s&2 != 0 {
		r = n - 1 - r
	}
	if s&1 != 0 {
		c = n - 1 - c
	}
	return r, c
}

// op returns update k's edge and whether it removes the edge.
func (s *flapScript) op(k int) (protocols.Edge, bool) {
	for len(s.seq) <= k/2 {
		e := s.edges[s.base.Intn(len(s.edges))]
		sym := s.sym.Intn(8)
		move := func(name string) string {
			r, c := symmetric(sym, s.side, s.pos[name]/s.side, s.pos[name]%s.side)
			return s.names[r*s.side+c]
		}
		s.seq = append(s.seq, protocols.Edge{A: move(e.A), B: move(e.B), Cost: e.Cost})
	}
	return s.seq[k/2], k%2 == 0
}

// wantCost is mincost(@a,b) right after update k: every grid edge lies
// on a unit square, so removing it leaves a 3-hop detour.
func (s *flapScript) wantCost(k int) int64 {
	if _, remove := s.op(k); remove {
		return 3
	}
	return 1
}

// update is one resolved script step.
type update struct {
	edge   protocols.Edge
	remove bool
}

// at resolves update k. The script extends itself lazily, so only the
// driving goroutine calls it; engines are handed the resolved update.
func (s *flapScript) at(k int) update {
	e, remove := s.op(k)
	return update{edge: e, remove: remove}
}

// apply runs the update on one engine.
func (u update) apply(eng *engine.Engine) error {
	if u.remove {
		return eng.RemoveBiLink(u.edge.A, u.edge.B, u.edge.Cost)
	}
	return eng.AddBiLink(u.edge.A, u.edge.B, u.edge.Cost)
}

func newMinCost(g grid) (*engine.Engine, error) {
	return engine.New(protocols.MinCost, g.names, engine.DefaultOptions())
}

// converge adds every grid link. It drains through the epoch scheduler,
// as a clustered engine and an engine with a publisher attached do, so
// every deployment shape sends the same per-link traffic and a
// single-process replay reproduces a cluster's snapshot digests.
func converge(eng *engine.Engine, g grid) error {
	if !eng.Clustered() {
		eng.SetEpochObserver(func() {})
	}
	for _, e := range g.edges {
		if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
			return err
		}
	}
	return nil
}

// probeCost is the freshness probe of the flap workloads, run on the
// newest snapshot holding node a: it is newer than version after, and
// a's mincost table is complete (a route to every other node) with
// mincost(@a,b,want).
func probeCost(snap *server.Snapshot, after uint64, nodes int, a, b string, want int64) error {
	if snap.Version <= after {
		return fmt.Errorf("version %d did not advance past %d", snap.Version, after)
	}
	tables, ok := snap.NodeTables(a)
	if !ok || tables["mincost"] == nil {
		return fmt.Errorf("snapshot %d has no mincost table at %s", snap.Version, a)
	}
	rows, found := 0, false
	tables["mincost"].Scan(func(t rel.Tuple) bool {
		rows++
		if dst, _ := t.Vals[1].AsAddr(); dst == b {
			c, _ := t.Vals[2].AsInt()
			found = c == want
		}
		return true
	})
	if !found || rows != nodes-1 {
		return fmt.Errorf("version %d: %s has %d mincost rows, mincost(@%s,%s,%d) found=%v", snap.Version, a, rows, a, b, want, found)
	}
	return nil
}

// mincostRows renders each node's mincost table for the final check.
func mincostRows(snap *server.Snapshot, nodes []string) map[string]string {
	out := map[string]string{}
	for _, a := range nodes {
		if tables, ok := snap.NodeTables(a); ok && tables["mincost"] != nil {
			out[a] = fmt.Sprint(tables["mincost"].Tuples())
		}
	}
	return out
}

func countMismatches(want, got map[string]string) int {
	bad := 0
	for a, w := range want {
		if got[a] != w {
			bad++
		}
	}
	return bad
}

// engineCounters reads the public per-engine counters a traced update
// is charged with.
type engineCounters struct{ firings, deltas, msgs, rounds, framesOut, bytesOut float64 }

func readCounters(eng *engine.Engine) engineCounters {
	var c engineCounters
	for _, addr := range eng.Nodes() {
		n, _ := eng.Node(addr)
		st := n.RT.Statistics()
		c.firings += float64(st.Firings)
		c.deltas += float64(st.DeltasProcessed)
	}
	msgs, _, _ := eng.Net.Totals()
	c.msgs = float64(msgs)
	cs := eng.ClusterStats()
	c.rounds = float64(cs.Rounds)
	c.framesOut = float64(cs.FramesOut)
	c.bytesOut = float64(cs.BytesOut)
	return c
}

func maintBytes(eng *engine.Engine) float64 {
	_, bytes, _ := eng.Net.Totals()
	return float64(bytes)
}

func provEntries(eng *engine.Engine, owned func(string) bool) float64 {
	total := 0.0
	for _, addr := range eng.Nodes() {
		if !owned(addr) {
			continue
		}
		n, _ := eng.Node(addr)
		st := n.Prov.Statistics()
		total += float64(st.ProvEntries + st.ExecEntries)
	}
	return total
}

// ---- flap: one process ------------------------------------------------

type flapDep struct {
	eng *engine.Engine
	pub *server.Publisher
}

func buildFlap(g grid) (*flapDep, error) {
	eng, err := newMinCost(g)
	if err != nil {
		return nil, err
	}
	if err := converge(eng, g); err != nil {
		return nil, err
	}
	pub, err := server.NewPublisher(eng, 0)
	if err != nil {
		return nil, err
	}
	return &flapDep{eng: eng, pub: pub}, nil
}

func runFlap(cfg config) (*outcome, error) {
	g := newGrid(cfg.FlapSide)
	dep, setupS, err := medianSetup(cfg.Setups, func() (*flapDep, error) { return buildFlap(g) },
		func(d *flapDep) { d.pub.Detach() })
	if err != nil {
		return nil, err
	}
	defer dep.pub.Detach()
	converged := mincostRows(dep.pub.Current(), g.names)

	var tr *tracer
	var tap *engineTap
	if cfg.Trace {
		tr = newTracer()
		tap = &engineTap{tr: tr}
		dep.eng.SetEpochObserver(tap.observe(func() { dep.pub.Publish() }))
	}
	script := newFlapScript(cfg.Seed, g)
	oc := &outcome{}
	var lc layerCounters
	acc, updates := runFlapLoop(cfg, setupS, script, oc, &lc, flapTarget{
		apply: func(k int, traced bool) error {
			var start int64
			if tap != nil {
				start = tap.begin(traced)
			}
			err := script.at(k).apply(dep.eng)
			if tap != nil {
				tap.end(start)
			}
			return err
		},
		snapshot: func(string) *server.Snapshot { return dep.pub.Current() },
		counters: func() engineCounters { return readCounters(dep.eng) },
		maint:    func() float64 { return maintBytes(dep.eng) },
	})

	oc.attempted++
	if bad := countMismatches(converged, mincostRows(dep.pub.Current(), g.names)); bad > 0 {
		oc.failed++
		oc.notes = append(oc.notes, fmt.Sprintf("final check: %d nodes' mincost differ from the converged tables", bad))
	}
	lc.provEntries = provEntries(dep.eng, func(string) bool { return true })
	if tr != nil {
		if err := writeSpans(cfg, tr, oc); err != nil {
			return nil, err
		}
	}
	oc.finish(acc, tr, lc, map[string]float64{"grid_side": float64(g.side), "updates": float64(updates),
		"heap_at_update": heapAtUpdate})
	return oc, nil
}

// flapTarget is what the closed-loop flap loop needs from a
// deployment, single-process or clustered.
type flapTarget struct {
	apply    func(k int, traced bool) error     // update k, everywhere
	snapshot func(node string) *server.Snapshot // newest snapshot holding node
	counters func() engineCounters              // summed public counters
	maint    func() float64                     // modeled maintenance bytes so far
	pause    func(k int)                        // optional hook after update k, untimed
}

// probesPerUpdate is how many times the flap workloads read the new
// snapshot after each update.
const probesPerUpdate = 8

// runFlapLoop is the closed-loop writer of flap and flap-dist2: apply
// the next update, then probe the newest snapshot for its effect, until
// the window ends; the last removed edge is then re-added untimed so
// the final state is the converged one.
func runFlapLoop(cfg config, setupS float64, script *flapScript, oc *outcome, lc *layerCounters, t flapTarget) (*e2e, int) {
	runtime.GC()
	clk := clock{start: time.Now(), block: time.Duration(cfg.TraceBlock * float64(time.Second)), traced: cfg.Trace}
	acc := newE2E(clk, setupS)
	deadline := clk.start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var paused time.Duration
	k := 0
	for ; time.Now().Add(-paused).Before(deadline); k++ {
		e, _ := script.op(k)
		after := t.snapshot(e.A).Version
		t0 := time.Now()
		mode := clk.modeAt(t0.Add(-paused))
		traced := mode == modeTraced
		var c0 engineCounters
		if traced {
			c0 = t.counters()
		}
		m0 := t.maint()
		err := t.apply(k, traced)
		t1 := time.Now()
		oc.attempted++
		if err != nil {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("update %d: %v", k, err))
			break
		}
		// The probe reads both endpoints: the update must be visible
		// from either side. It is repeated so the query tail rests on
		// enough samples; freshness is the first probe's.
		a := &acc.m[mode]
		snap := t.snapshot(e.A)
		var t2 time.Time
		for i := 0; i < probesPerUpdate; i++ {
			p0 := time.Now()
			perr := probeCost(t.snapshot(e.A), after, len(script.names), e.A, e.B, script.wantCost(k))
			if perr == nil {
				perr = probeCost(t.snapshot(e.B), after, len(script.names), e.B, e.A, script.wantCost(k))
			}
			p1 := time.Now()
			if i == 0 {
				t2 = p1
			}
			oc.attempted++
			if perr != nil {
				oc.failed++
				oc.notes = append(oc.notes, fmt.Sprintf("probe after update %d: %v", k, perr))
			}
			a.qryAt = append(a.qryAt, p0.Add(-paused).Sub(clk.start).Seconds())
			a.qryMs = append(a.qryMs, ms(p1.Sub(p0)))
		}
		a.updAt = append(a.updAt, t0.Add(-paused).Sub(clk.start).Seconds())
		a.updMs = append(a.updMs, ms(t1.Sub(t0)))
		a.freshMs = append(a.freshMs, ms(t2.Sub(t0)))
		a.maintBytes += t.maint() - m0
		if traced {
			c1 := t.counters()
			lc.updates++
			lc.firings += c1.firings - c0.firings
			lc.deltas += c1.deltas - c0.deltas
			lc.msgs += c1.msgs - c0.msgs
			lc.rounds += c1.rounds - c0.rounds
			lc.framesOut += c1.framesOut - c0.framesOut
			lc.bytesOut += c1.bytesOut - c0.bytesOut
			lc.versions += float64(snap.Version - after)
		}
		if k == heapAtUpdate-1 || t.pause != nil {
			p0 := time.Now()
			if k == heapAtUpdate-1 {
				acc.heapMB = retainedHeapMB()
			}
			if t.pause != nil {
				t.pause(k)
			}
			paused += time.Since(p0)
		}
	}
	acc.stop(time.Now().Add(-paused))
	if acc.heapMB == 0 {
		acc.heapMB = retainedHeapMB()
	}
	if k%2 == 1 {
		// The window ended after a removal: restore the edge, untimed.
		oc.attempted++
		if err := t.apply(k, false); err != nil {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("final re-add: %v", err))
		}
	}
	return acc, k
}

// ---- flap-dist2: a cluster of engines over loopback TCP ---------------

// member is one cluster member: its own engine, transport and colocated
// shard publisher, driven by its own goroutine.
type member struct {
	eng  *engine.Engine
	tr   *nettransport.Transport
	pub  *server.Publisher
	tap  *engineTap
	ops  chan memberOp
	done chan error
}

type memberOp struct {
	u      update
	traced bool
}

type distDep struct {
	members []*member
	serving bool // member goroutines started
	wg      sync.WaitGroup
}

// buildDist dials a loopback mesh, builds and converges one engine per
// member in lockstep, and attaches each member's shard publisher.
func buildDist(g grid, size int) (*distDep, error) {
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	d := &distDep{members: make([]*member, size)}
	trs := make([]*nettransport.Transport, size)
	dialErrs := make([]error, size)
	var dialWG sync.WaitGroup
	for i := 0; i < size; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			trs[i], dialErrs[i] = nettransport.Dial(context.Background(), i, addrs, nettransport.Options{Listener: lns[i]})
		}(i)
	}
	dialWG.Wait()
	for i, err := range dialErrs {
		if err != nil {
			// A failed Dial has closed its own listener.
			for _, tr := range trs {
				if tr != nil {
					tr.Close()
				}
			}
			return nil, fmt.Errorf("dial member %d: %w", i, err)
		}
	}
	for i := 0; i < size; i++ {
		d.members[i] = &member{tr: trs[i], ops: make(chan memberOp), done: make(chan error)}
	}
	// Every member runs the same build script in its own goroutine:
	// each drain is a barrier with the peers.
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, m := range d.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = m.build(g, i, size)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
	}
	d.serving = true
	for _, m := range d.members {
		d.wg.Add(1)
		go func(m *member) {
			defer d.wg.Done()
			m.serve()
		}(m)
	}
	return d, nil
}

func (m *member) build(g grid, rank, size int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			m.tr.Close() // fail the peers' barriers instead of hanging them
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	eng, err := newMinCost(g)
	if err != nil {
		m.tr.Close()
		return err
	}
	m.tap = &engineTap{eng: rank}
	if err := eng.EnableCluster(tapTransport{Transport: m.tr, et: m.tap}); err != nil {
		m.tr.Close()
		return err
	}
	if err := converge(eng, g); err != nil {
		m.tr.Close()
		return err
	}
	pub, err := server.NewPublisherWithOptions(eng, server.PublisherOptions{Shard: server.ShardSpec{Index: rank, Total: size}})
	if err != nil {
		m.tr.Close()
		return err
	}
	m.eng, m.pub = eng, pub
	return nil
}

// serve applies the updates it is handed until ops is closed.
func (m *member) serve() {
	for op := range m.ops {
		m.done <- m.applyOne(op)
	}
}

func (m *member) applyOne(op memberOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			m.tr.Close()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var start int64
	if m.tap.tr != nil {
		start = m.tap.begin(op.traced)
	}
	err = op.u.apply(m.eng)
	if m.tap.tr != nil {
		m.tap.end(start)
	}
	return err
}

// apply runs update u on every member and waits for all of them.
func (d *distDep) apply(u update, traced bool) error {
	for _, m := range d.members {
		m.ops <- memberOp{u: u, traced: traced}
	}
	var first error
	for i, m := range d.members {
		if err := <-m.done; err != nil && first == nil {
			first = fmt.Errorf("member %d: %w", i, err)
		}
	}
	return first
}

// close stops the member goroutines and the transports.
func (d *distDep) close() {
	if d.serving {
		for _, m := range d.members {
			close(m.ops)
		}
		d.wg.Wait()
		d.serving = false
	}
	for _, m := range d.members {
		if m.pub != nil {
			m.pub.Detach()
		}
		m.tr.Close()
	}
}

// owners maps each node to the member whose shard publishes it.
func (d *distDep) owners() map[string]*member {
	out := map[string]*member{}
	for _, m := range d.members {
		for _, addr := range m.pub.Current().Nodes {
			out[addr] = m
		}
	}
	return out
}

func runFlapDist(cfg config) (*outcome, error) {
	g := newGrid(cfg.FlapSide)
	script := newFlapScript(cfg.Seed, g)
	dep, setupS, err := medianSetup(cfg.Setups, func() (*distDep, error) { return buildDist(g, distMembers) },
		func(d *distDep) { d.close() })
	if err != nil {
		return nil, err
	}
	defer dep.close()

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
		for _, m := range dep.members {
			m.tap.tr = tr
			m.eng.SetDistObserver(distTap{et: m.tap, inner: m.pub})
		}
	}
	oc := &outcome{}
	var lc layerCounters
	owners := dep.owners()
	// Digest parity is checked after update Checkpoint-1 (or the last
	// update, if the window ends first); the member digests are taken
	// there, untimed, and compared with a single-process replay below.
	cp := cfg.Checkpoint
	var cpDigests map[string]rel.ID
	var cpVersion uint64
	takeDigests := func() {
		cpDigests = map[string]rel.ID{}
		for _, m := range dep.members {
			snap := m.pub.Current()
			cpVersion = snap.Version
			for _, addr := range snap.Nodes {
				cpDigests[addr], _ = snap.NodeDigest(addr)
			}
		}
	}
	acc, updates := runFlapLoop(cfg, setupS, script, oc, &lc, flapTarget{
		apply:    func(k int, traced bool) error { return dep.apply(script.at(k), traced) },
		snapshot: func(node string) *server.Snapshot { return owners[node].pub.Current() },
		counters: func() engineCounters {
			var c engineCounters
			for i, m := range dep.members {
				mc := readCounters(m.eng)
				c.firings += mc.firings
				c.deltas += mc.deltas
				c.msgs += mc.msgs
				c.framesOut += mc.framesOut
				c.bytesOut += mc.bytesOut
				if i == 0 {
					c.rounds = mc.rounds
				}
			}
			return c
		},
		maint: func() float64 {
			t := 0.0
			for _, m := range dep.members {
				t += maintBytes(m.eng)
			}
			return t
		},
		pause: func(k int) {
			if k == cp-1 {
				takeDigests()
			}
		},
	})
	done := updates
	if done%2 == 1 {
		done++ // the untimed re-add
	}
	if done < cp {
		// The window ended before the checkpoint: check the final state.
		cp = done
		takeDigests()
	}
	finalRows := map[string]string{}
	for _, m := range dep.members {
		for a, r := range mincostRows(m.pub.Current(), g.names) {
			finalRows[a] = r
		}
	}
	for _, m := range dep.members {
		lc.provEntries += provEntries(m.eng, m.eng.Owns)
	}
	if tr != nil {
		if err := writeSpans(cfg, tr, oc); err != nil {
			return nil, err
		}
	}

	// Reference: a single-process replay of the same script, outside
	// every timed section.
	ref, err := buildFlap(g)
	if err != nil {
		return nil, err
	}
	defer ref.pub.Detach()
	converged := mincostRows(ref.pub.Current(), g.names)
	for k := 0; k < cp; k++ {
		if err := script.at(k).apply(ref.eng); err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
	}
	refSnap := ref.pub.Current()
	oc.attempted++
	if refSnap.Version != cpVersion {
		oc.failed++
		oc.notes = append(oc.notes, fmt.Sprintf("checkpoint after %d updates: cluster at version %d, replay at %d", cp, cpVersion, refSnap.Version))
	} else {
		bad := 0
		for _, addr := range g.names {
			if d, _ := refSnap.NodeDigest(addr); d != cpDigests[addr] {
				bad++
			}
		}
		if bad > 0 {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("checkpoint after %d updates: %d node digests differ from the single-process replay", cp, bad))
		}
	}
	oc.attempted++
	if bad := countMismatches(converged, finalRows); bad > 0 {
		oc.failed++
		oc.notes = append(oc.notes, fmt.Sprintf("final check: %d nodes' mincost differ from the converged tables", bad))
	}

	oc.finish(acc, tr, lc, map[string]float64{"grid_side": float64(g.side), "members": distMembers,
		"updates": float64(updates), "checkpoint_update": float64(cp), "heap_at_update": heapAtUpdate})
	return oc, nil
}
