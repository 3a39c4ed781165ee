package provstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// Defaults for Options; see the field docs.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultSealVersions = 1024
)

// ErrNotRetained reports a version (or a blob one depends on) that
// retention has deleted or that was never stored. The serving layer
// maps it to the snapshot_evicted API error.
var ErrNotRetained = errors.New("provstore: version not retained")

// ShardInfo names the deployment slice a store belongs to, mirroring
// the server's shard spec without importing it (the server imports us).
type ShardInfo struct {
	Index int
	Total int
}

// Options configures a store. AllNodes and Owned pin the deployment
// identity: a store refuses to reopen under a different node set or
// shard, because version records address nodes by owned index.
type Options struct {
	AllNodes []string
	Owned    []string
	Shard    ShardInfo

	// SegmentBytes seals the active segment once it grows past this
	// size; SealVersions seals it once it holds this many versions
	// (whichever comes first). Defaults: 4 MiB / 1024.
	SegmentBytes int64
	SealVersions int

	// SyncEvery fsyncs the active segment every N appends (default 1:
	// every version is durable before Append returns). Larger values
	// trade the fsync cost against versions at risk in a crash — the
	// torn tail is truncated, never corrupted, either way.
	SyncEvery int

	// Retain bounds history: once the newest version passes it,
	// whole segments whose versions (and whose blobs' referencing
	// records) have all aged out of the newest Retain versions are
	// deleted. 0 keeps everything.
	Retain int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SealVersions <= 0 {
		o.SealVersions = DefaultSealVersions
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	return o
}

// NodeState is one dirty node's freshly published state.
type NodeState struct {
	OwnedIdx int
	Info     Info
	Tables   map[string]*rel.Frozen
	View     *provenance.View
}

// InfoUpdate refreshes a carried node's traffic counters.
type InfoUpdate struct {
	OwnedIdx int
	Info     Info
}

// VersionInput is one published version as the Publisher tees it:
// state entries for the nodes whose state changed (ascending owned
// index), info updates for nodes whose counters moved without state.
type VersionInput struct {
	Version uint64
	Time    int64
	States  []NodeState
	Infos   []InfoUpdate
}

// NodeData is one owned node's materialized historical state.
type NodeData struct {
	Addr   string
	Tables map[string]*rel.Frozen
	View   *provenance.View
	// Info is the node's effective metadata at the materialized
	// version (traffic counters included); StateInfo and StateTime are
	// the metadata and virtual time of the version that last changed
	// the node's state — the node's history row.
	Info      Info
	StateInfo Info
	StateTime int64
}

// VersionData is one fully materialized historical version.
type VersionData struct {
	Version uint64
	Time    int64
	Nodes   []NodeData // parallel to Options.Owned
}

// prevTable tracks, per owned table, what the store last recorded —
// the delta base for first-seen detection. After a restart the maps
// start empty, which only over-approximates first-seen (FirstVersion
// takes the earliest segment's answer, so earlier truth still wins).
type prevTable struct {
	frozen *rel.Frozen
	chunks map[rel.ID]bool
}

// Store is a log-structured, append-only snapshot store. Appends run
// on the simulation thread (the Publisher's epoch observer);
// materializations run on HTTP goroutines. A single RWMutex covers the
// segment list and the active segment's in-memory index; the version
// counters are atomics so the serving tier can consult them lock-free.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	sealed   []*sealedSegment
	lastRefs map[uint64]uint64 // sealed seq -> newest referencing version
	active   *activeSegment

	// stateVers/infoVers are the current resolution vectors (per owned
	// node, the version whose record holds its state/info entry);
	// every Append persists the updated vectors in the version record.
	stateVers []uint64
	infoVers  []uint64
	prev      []map[string]prevTable
	unsynced  int
	closed    bool

	lastVersion    atomic.Uint64
	oldestVersion  atomic.Uint64
	durableVersion atomic.Uint64
}

// Open opens (or initializes) the store at dir and recovers it to a
// consistent state: sealed segments are mapped and their indexes
// validated, and the active segment — the only place a torn tail can
// exist — is scanned record by record and truncated after the last
// CRC-valid record.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if len(opts.Owned) == 0 {
		return nil, errors.New("provstore: options name no owned nodes")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shardIdx, shardN, entries, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) > 0 || shardN != 0 || shardIdx != 0 {
		if shardIdx != opts.Shard.Index || shardN != opts.Shard.Total {
			return nil, fmt.Errorf("provstore: %s belongs to shard %d/%d, not %d/%d",
				dir, shardIdx, shardN, opts.Shard.Index, opts.Shard.Total)
		}
	}
	s := &Store{dir: dir, opts: opts, lastRefs: map[uint64]uint64{}}
	s.stateVers = make([]uint64, len(opts.Owned))
	s.infoVers = make([]uint64, len(opts.Owned))
	s.prev = make([]map[string]prevTable, len(opts.Owned))
	hdr := &header{
		format:   formatVersion,
		shardIdx: opts.Shard.Index,
		shardN:   opts.Shard.Total,
		allNodes: opts.AllNodes,
		owned:    opts.Owned,
	}
	fail := func(err error) (*Store, error) {
		s.closeSegmentsLocked()
		return nil, err
	}
	for _, e := range entries {
		seg, err := openSealedSegment(dir, e)
		if err != nil {
			return fail(err)
		}
		if err := s.checkIdentity(seg.hdr, seg.name); err != nil {
			seg.close()
			return fail(err)
		}
		s.sealed = append(s.sealed, seg)
		s.lastRefs[seg.seq] = e.lastRef
	}
	var maxSeq uint64
	if n := len(entries); n > 0 {
		maxSeq = entries[n-1].seq
	}
	if err := s.recoverActive(hdr, maxSeq); err != nil {
		return fail(err)
	}
	// Resolution vectors: the newest version record holds them.
	if last := s.newestVersionLocked(); last > 0 {
		vr, err := s.findVersionLocked(last)
		if err != nil {
			return fail(fmt.Errorf("provstore: recover resolution vectors: %w", err))
		}
		copy(s.stateVers, vr.stateVers)
		copy(s.infoVers, vr.infoVers)
		s.lastVersion.Store(last)
		s.durableVersion.Store(last)
	}
	if len(s.sealed) > 0 {
		s.oldestVersion.Store(s.sealed[0].first)
	} else if s.active.first > 0 {
		s.oldestVersion.Store(s.active.first)
	}
	return s, nil
}

// checkIdentity rejects segments written by a different deployment.
func (s *Store) checkIdentity(h *header, name string) error {
	if h.shardIdx != s.opts.Shard.Index || h.shardN != s.opts.Shard.Total {
		return fmt.Errorf("provstore: %s written by shard %d/%d, store opened as %d/%d",
			name, h.shardIdx, h.shardN, s.opts.Shard.Index, s.opts.Shard.Total)
	}
	if !slices.Equal(h.allNodes, s.opts.AllNodes) || !slices.Equal(h.owned, s.opts.Owned) {
		return fmt.Errorf("provstore: %s written for a different node set", name)
	}
	return nil
}

// recoverActive discovers and recovers the unsealed tail segment
// (sequence maxSeq+1), creating a fresh one when none exists. A tail
// that already ends in a seal record (the crash hit between fsync and
// manifest update) is adopted as sealed. Segment files the manifest
// does not know and the tail sequence does not claim are leftovers of
// an interrupted retention delete and are removed.
func (s *Store) recoverActive(hdr *header, maxSeq uint64) error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return err
	}
	known := map[string]bool{}
	for _, seg := range s.sealed {
		known[seg.name] = true
	}
	tailName := segmentName(maxSeq + 1)
	tailPath := ""
	for _, path := range names {
		base := filepath.Base(path)
		if known[base] {
			continue
		}
		if base == tailName {
			tailPath = path
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(base, "seg-%d.seg", &seq); err == nil && seq > maxSeq+1 {
			return fmt.Errorf("provstore: %s: segment %s beyond the recoverable tail %s", s.dir, base, tailName)
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	if tailPath == "" {
		hc := *hdr
		s.active, err = createActiveSegment(s.dir, maxSeq+1, &hc)
		return err
	}
	adopted, torn, err := s.scanTail(tailPath, maxSeq+1)
	if err != nil {
		return err
	}
	if torn {
		// The crash landed before the tail's header record was durable.
		// createActiveSegment fsyncs the header before any record is
		// appended, so a torn header proves the segment never held data:
		// recreate it from scratch under the same sequence number.
		if err := os.Remove(tailPath); err != nil {
			return err
		}
		hc := *hdr
		s.active, err = createActiveSegment(s.dir, maxSeq+1, &hc)
		return err
	}
	if adopted {
		hc := *hdr
		s.active, err = createActiveSegment(s.dir, maxSeq+2, &hc)
		return err
	}
	return nil
}

// scanTail replays the tail segment: every record is CRC-checked and
// indexed, the first invalid byte truncates the file, and sealed-blob
// references re-bump lastRefs (they were only in memory when the
// process died). Returns adopted=true when the tail was adopted as
// sealed, or torn=true when even the header record is incomplete (the
// caller recreates the segment — a torn header proves no record was
// ever durable, because the header is fsynced before the first append).
func (s *Store) scanTail(path string, seq uint64) (adopted, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, false, err
	}
	name := filepath.Base(path)
	if len(data) < len(segmentMagic) {
		return false, true, nil
	}
	if string(data[:len(segmentMagic)]) != segmentMagic {
		return false, false, fmt.Errorf("provstore: %s: bad magic", name)
	}
	off := int64(len(segmentMagic))
	typ, payload, next, err := readRecord(data, off)
	if err != nil {
		return false, true, nil
	}
	if typ != recHeader {
		return false, false, fmt.Errorf("provstore: %s: missing header record", name)
	}
	hdr, err := unmarshalHeader(payload)
	if err != nil {
		return false, false, err
	}
	if hdr.seq != seq {
		return false, false, fmt.Errorf("provstore: %s: header seq %d, expected %d", name, hdr.seq, seq)
	}
	if err := s.checkIdentity(hdr, name); err != nil {
		return false, false, err
	}
	a := &activeSegment{
		name: name, seq: seq, hdr: hdr, size: next,
		blobOff:   map[rel.ID]int64{},
		verOff:    map[uint64]int64{},
		firstSeen: map[string]uint64{},
	}
	indexOff := int64(-1)
	off = next
	for off < int64(len(data)) {
		typ, payload, next, err := readRecord(data, off)
		if err != nil {
			break // torn tail: truncate here
		}
		switch typ {
		case recBlob:
			a.blobOff[rel.HashBytes(payload)] = off
		case recVersion:
			vr, err := unmarshalVersionRecord(payload, len(s.opts.Owned))
			if err != nil {
				return false, false, fmt.Errorf("provstore: %s: version record at %d: %w", name, off, err)
			}
			if a.last != 0 && vr.version != a.last+1 {
				return false, false, fmt.Errorf("provstore: %s: version %d follows %d", name, vr.version, a.last)
			}
			a.noteVersion(vr, off, s.opts.Owned)
			s.rebumpRefs(vr, a)
		case recIndex:
			indexOff = off
		default:
			return false, false, fmt.Errorf("provstore: %s: unknown record type %q at %d", name, typ, off)
		}
		a.size = next
		off = next
		if typ == recIndex {
			break // a seal record ends a segment
		}
	}
	if indexOff >= 0 && a.size == indexOff+recordLen(data, indexOff) {
		// The tail was fully sealed but the manifest write never
		// landed: adopt it, truncating anything after the seal record.
		if err := os.Truncate(path, a.size); err != nil {
			return false, false, err
		}
		entry := manifestEntry{
			name: name, seq: seq, first: a.first, last: a.last,
			size: a.size, indexOff: indexOff, lastRef: a.last,
		}
		seg, err := openSealedSegment(s.dir, entry)
		if err != nil {
			return false, false, err
		}
		s.sealed = append(s.sealed, seg)
		s.lastRefs[seq] = entry.lastRef
		return true, false, s.writeManifestLocked()
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false, false, err
	}
	if err := f.Truncate(a.size); err != nil {
		f.Close()
		return false, false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, false, err
	}
	a.f = f
	s.active = a
	return false, false, nil
}

// recordLen returns the framed length of the record at off, which the
// caller has already decoded successfully.
func recordLen(data []byte, off int64) int64 {
	_, _, next, err := readRecord(data, off)
	if err != nil {
		return 0
	}
	return next - off
}

// rebumpRefs re-applies the lastRef bumps a version record's blob
// references imply, for recovery.
func (s *Store) rebumpRefs(vr *versionRecord, a *activeSegment) {
	bump := func(h rel.ID) {
		if _, ok := a.blobOff[h]; ok {
			return
		}
		for i := len(s.sealed) - 1; i >= 0; i-- {
			seg := s.sealed[i]
			if _, ok := seg.blobs.Get(h[:]); ok {
				if s.lastRefs[seg.seq] < vr.version {
					s.lastRefs[seg.seq] = vr.version
				}
				return
			}
		}
	}
	for i := range vr.states {
		se := &vr.states[i]
		for _, te := range se.tables {
			for _, h := range te.chunks {
				bump(h)
			}
		}
		for _, spine := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
			for _, ref := range spine {
				if ref.present {
					bump(ref.hash)
				}
			}
		}
	}
}

// newestVersionLocked returns the newest stored version, 0 when empty.
func (s *Store) newestVersionLocked() uint64 {
	if s.active != nil && s.active.last > 0 {
		return s.active.last
	}
	if n := len(s.sealed); n > 0 {
		return s.sealed[n-1].last
	}
	return 0
}

// LastVersion returns the newest appended version (0 when empty). The
// Publisher resumes minting at LastVersion()+1 after a restart.
func (s *Store) LastVersion() uint64 { return s.lastVersion.Load() }

// OldestVersion returns the oldest version still materializable, 0
// when the store is empty.
func (s *Store) OldestVersion() uint64 { return s.oldestVersion.Load() }

// DurableVersion returns the newest version guaranteed to survive a
// crash (fsynced or sealed). The server's history trimming must not
// drop rows newer than this.
func (s *Store) DurableVersion() uint64 { return s.durableVersion.Load() }

// Owned returns the owned node addresses, in record index order.
func (s *Store) Owned() []string { return s.opts.Owned }

// Sync forces the active segment to disk, advancing DurableVersion.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("provstore: store closed")
	}
	return s.syncActiveLocked()
}

func (s *Store) syncActiveLocked() error {
	if s.active == nil {
		return nil
	}
	if err := s.active.f.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	s.durableVersion.Store(s.lastVersion.Load())
	return nil
}

// Close syncs and releases the store. The active segment stays
// unsealed on disk; the next Open recovers it by scanning.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncActiveLocked()
	s.closed = true
	s.closeSegmentsLocked()
	return err
}

func (s *Store) closeSegmentsLocked() {
	for _, seg := range s.sealed {
		seg.close()
	}
	s.sealed = nil
	if s.active != nil && s.active.f != nil {
		s.active.f.Close()
	}
	s.active = nil
}

// Append tees one published version into the log. Versions must arrive
// densely; a version at or below LastVersion is a deterministic replay
// of history the store already holds and is skipped idempotently.
// Append runs on the publishing thread — it is not safe for concurrent
// use with itself, only with readers.
func (s *Store) Append(in VersionInput) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("provstore: store closed")
	}
	if s.active == nil {
		return errors.New("provstore: store has no active segment (a previous seal failed)")
	}
	last := s.lastVersion.Load()
	if in.Version <= last {
		return nil
	}
	if in.Version != last+1 && last != 0 {
		return fmt.Errorf("provstore: version %d leaves a gap after %d", in.Version, last)
	}
	if in.Time < 0 {
		return fmt.Errorf("provstore: version %d has negative time %d", in.Version, in.Time)
	}

	// Stage all record bytes first; bookkeeping commits only after the
	// file write succeeds, so a failed append leaves a truncatable
	// tail, never a half-indexed store.
	var fileBuf []byte
	type pendingBlob struct {
		h   rel.ID
		off int64
	}
	var pend []pendingBlob
	staged := map[rel.ID]bool{}
	refSeqs := map[uint64]bool{}
	addBlob := func(blob []byte) rel.ID {
		h := rel.HashBytes(blob)
		if staged[h] {
			return h
		}
		if _, ok := s.active.blobOff[h]; ok {
			return h
		}
		for i := len(s.sealed) - 1; i >= 0; i-- {
			if _, ok := s.sealed[i].blobs.Get(h[:]); ok {
				refSeqs[s.sealed[i].seq] = true
				return h
			}
		}
		off := s.active.size + int64(len(fileBuf))
		fileBuf = appendRecord(fileBuf, recBlob, blob)
		pend = append(pend, pendingBlob{h, off})
		staged[h] = true
		return h
	}

	newStateVers := append([]uint64(nil), s.stateVers...)
	newInfoVers := append([]uint64(nil), s.infoVers...)
	newPrev := map[int]map[string]prevTable{}
	vr := &versionRecord{version: in.Version, time: in.Time}
	prevIdx := -1
	for _, ns := range in.States {
		if ns.OwnedIdx <= prevIdx || ns.OwnedIdx >= len(s.opts.Owned) {
			return fmt.Errorf("provstore: version %d: bad state owned index %d", in.Version, ns.OwnedIdx)
		}
		prevIdx = ns.OwnedIdx
		se := stateEntry{ownedIdx: ns.OwnedIdx, info: ns.Info}
		names := make([]string, 0, len(ns.Tables))
		for name := range ns.Tables {
			names = append(names, name)
		}
		sort.Strings(names)
		prevTables := s.prev[ns.OwnedIdx]
		nodePrev := make(map[string]prevTable, len(names))
		for _, name := range names {
			f := ns.Tables[name]
			pt := prevTables[name]
			te := tableEntry{name: name, version: f.Version()}
			chunkSet := map[rel.ID]bool{}
			f.Runs(func(run []rel.Tuple) {
				blob := encodeChunkBlob(run)
				h := addBlob(blob)
				te.chunks = append(te.chunks, h)
				chunkSet[h] = true
				if !pt.chunks[h] {
					// A chunk the store has not recorded for this
					// table: any tuple in it absent from the previous
					// frozen set is first seen at this version.
					for _, t := range run {
						if !pt.frozen.Contains(t) {
							se.firstSeen = append(se.firstSeen, t.VID())
						}
					}
				}
			})
			se.tables = append(se.tables, te)
			nodePrev[name] = prevTable{frozen: f, chunks: chunkSet}
		}
		provB, execB, pinsB := ns.View.PersistBuckets()
		se.view = viewEntry{version: ns.View.Version()}
		for spineIdx, spine := range [][][]byte{provB, execB, pinsB} {
			refs := make([]blobRef, len(spine))
			for i, blob := range spine {
				if blob == nil {
					continue
				}
				refs[i] = blobRef{present: true, hash: addBlob(blob)}
			}
			switch spineIdx {
			case 0:
				se.view.prov = refs
			case 1:
				se.view.exec = refs
			case 2:
				se.view.pins = refs
			}
		}
		vr.states = append(vr.states, se)
		newStateVers[ns.OwnedIdx] = in.Version
		newInfoVers[ns.OwnedIdx] = in.Version
		newPrev[ns.OwnedIdx] = nodePrev
	}
	prevIdx = -1
	for _, iu := range in.Infos {
		if iu.OwnedIdx <= prevIdx || iu.OwnedIdx >= len(s.opts.Owned) {
			return fmt.Errorf("provstore: version %d: bad info owned index %d", in.Version, iu.OwnedIdx)
		}
		prevIdx = iu.OwnedIdx
		if newStateVers[iu.OwnedIdx] == in.Version {
			return fmt.Errorf("provstore: version %d: node %d has both state and info entries", in.Version, iu.OwnedIdx)
		}
		vr.infos = append(vr.infos, infoEntry{ownedIdx: iu.OwnedIdx, info: iu.Info})
		newInfoVers[iu.OwnedIdx] = in.Version
	}
	vr.stateVers = newStateVers
	vr.infoVers = newInfoVers
	vr.minState = in.Version
	for _, sv := range newStateVers {
		if sv == 0 {
			return fmt.Errorf("provstore: version %d published before every owned node has state", in.Version)
		}
		if sv < vr.minState {
			vr.minState = sv
		}
	}

	vrOff := s.active.size + int64(len(fileBuf))
	fileBuf = appendRecord(fileBuf, recVersion, vr.marshal())
	if err := s.active.write(fileBuf); err != nil {
		return fmt.Errorf("provstore: append version %d: %w", in.Version, err)
	}

	for _, pb := range pend {
		s.active.blobOff[pb.h] = pb.off
	}
	s.active.noteVersion(vr, vrOff, s.opts.Owned)
	for seq := range refSeqs {
		if s.lastRefs[seq] < in.Version {
			s.lastRefs[seq] = in.Version
		}
	}
	s.stateVers = newStateVers
	s.infoVers = newInfoVers
	for idx, m := range newPrev {
		s.prev[idx] = m
	}
	s.lastVersion.Store(in.Version)
	if s.oldestVersion.Load() == 0 {
		s.oldestVersion.Store(in.Version)
	}
	s.unsynced++
	if s.unsynced >= s.opts.SyncEvery {
		if err := s.syncActiveLocked(); err != nil {
			return err
		}
	}
	if s.active.size >= s.opts.SegmentBytes || s.active.verCount >= s.opts.SealVersions {
		if err := s.sealLocked(); err != nil {
			return fmt.Errorf("provstore: seal %s: %w", s.active.name, err)
		}
	}
	return nil
}

// sealLocked freezes the active segment: index record, fsync, manifest
// update (which also persists every pending lastRef bump), retention,
// and a fresh active segment.
func (s *Store) sealLocked() error {
	a := s.active
	if a.verCount == 0 {
		return nil
	}
	idx, err := a.buildIndex()
	if err != nil {
		return err
	}
	indexOff := a.size
	if err := a.write(appendRecord(nil, recIndex, idx)); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	if err := a.f.Close(); err != nil {
		return err
	}
	// Every record of the old active now lives in the sealed segment;
	// clear the active slot so lookups during retention do not touch
	// the closed file. A fresh active is created below.
	s.active = nil
	entry := manifestEntry{
		name: a.name, seq: a.seq, first: a.first, last: a.last,
		size: a.size, indexOff: indexOff, lastRef: a.last,
	}
	seg, err := openSealedSegment(s.dir, entry)
	if err != nil {
		return err
	}
	s.sealed = append(s.sealed, seg)
	s.lastRefs[seg.seq] = entry.lastRef
	s.unsynced = 0
	s.durableVersion.Store(s.lastVersion.Load())
	removed := s.retentionLocked()
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	for _, name := range removed {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	hc := *a.hdr
	s.active, err = createActiveSegment(s.dir, seg.seq+1, &hc)
	return err
}

// retentionLocked drops whole sealed segments whose every version and
// every referenced blob has aged out of the retention window,
// oldest-first, stopping at the first segment still needed. A segment
// is still needed while any record at or after minNeeded — the oldest
// record any retained version resolves through — lives in it or
// references a blob in it.
func (s *Store) retentionLocked() (removedFiles []string) {
	if s.opts.Retain <= 0 {
		return nil
	}
	newest := s.lastVersion.Load()
	if newest <= uint64(s.opts.Retain) {
		return nil
	}
	oldestKept := newest - uint64(s.opts.Retain) + 1
	if ov := s.oldestVersion.Load(); oldestKept < ov {
		oldestKept = ov
	}
	vr, err := s.findVersionLocked(oldestKept)
	if err != nil {
		return nil // stay conservative: delete nothing we cannot prove safe
	}
	minNeeded := vr.minState
	if oldestKept < minNeeded {
		minNeeded = oldestKept
	}
	for len(s.sealed) > 1 {
		seg := s.sealed[0]
		if seg.last >= minNeeded || s.lastRefs[seg.seq] >= minNeeded {
			break
		}
		removedFiles = append(removedFiles, seg.name)
		seg.close()
		delete(s.lastRefs, seg.seq)
		s.sealed = s.sealed[1:]
	}
	if len(removedFiles) > 0 {
		if len(s.sealed) > 0 {
			s.oldestVersion.Store(s.sealed[0].first)
		} else if s.active != nil && s.active.first > 0 {
			s.oldestVersion.Store(s.active.first)
		}
	}
	return removedFiles
}

func (s *Store) writeManifestLocked() error {
	entries := make([]manifestEntry, len(s.sealed))
	for i, seg := range s.sealed {
		entries[i] = manifestEntry{
			name: seg.name, seq: seg.seq, first: seg.first, last: seg.last,
			size: seg.size, indexOff: seg.indexOff, lastRef: s.lastRefs[seg.seq],
		}
	}
	return writeManifest(s.dir, s.opts.Shard.Index, s.opts.Shard.Total, entries)
}

// findVersionLocked locates and decodes one version record.
func (s *Store) findVersionLocked(v uint64) (*versionRecord, error) {
	if v == 0 {
		return nil, ErrNotRetained
	}
	if s.active != nil {
		if off, ok := s.active.verOff[v]; ok {
			typ, payload, err := s.active.recordAt(off)
			if err != nil {
				return nil, err
			}
			if typ != recVersion {
				return nil, fmt.Errorf("provstore: %s: version index points at record type %q", s.active.name, typ)
			}
			return unmarshalVersionRecord(payload, len(s.opts.Owned))
		}
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		seg := s.sealed[i]
		if v < seg.first || v > seg.last {
			continue
		}
		vr, found, err := seg.version(v, len(s.opts.Owned))
		if err != nil {
			return nil, err
		}
		if found {
			return vr, nil
		}
	}
	return nil, fmt.Errorf("version %d: %w", v, ErrNotRetained)
}

// blobLocked fetches one content-addressed blob.
func (s *Store) blobLocked(h rel.ID) ([]byte, error) {
	if s.active != nil {
		if off, ok := s.active.blobOff[h]; ok {
			typ, payload, err := s.active.recordAt(off)
			if err != nil {
				return nil, err
			}
			if typ != recBlob {
				return nil, fmt.Errorf("provstore: %s: blob index points at record type %q", s.active.name, typ)
			}
			return payload, nil
		}
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		payload, found, err := s.sealed[i].blob(h)
		if err != nil {
			return nil, err
		}
		if found {
			return payload, nil
		}
	}
	return nil, fmt.Errorf("blob %s: %w", h.Short(), ErrNotRetained)
}

// Materialize reconstructs the full owned partition at a historical
// version: every node's frozen tables, provenance view, and published
// metadata, bit-for-bit equivalent to what the Publisher teed in.
// Versions below OldestVersion (or never published) fail with
// ErrNotRetained.
func (s *Store) Materialize(version uint64) (*VersionData, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("provstore: store closed")
	}
	recs := map[uint64]*versionRecord{}
	get := func(v uint64) (*versionRecord, error) {
		if vr, ok := recs[v]; ok {
			return vr, nil
		}
		vr, err := s.findVersionLocked(v)
		if err != nil {
			return nil, err
		}
		recs[v] = vr
		return vr, nil
	}
	vr, err := get(version)
	if err != nil {
		return nil, err
	}
	vd := &VersionData{Version: version, Time: vr.time, Nodes: make([]NodeData, len(s.opts.Owned))}
	for i, addr := range s.opts.Owned {
		srec, err := get(vr.stateVers[i])
		if err != nil {
			return nil, err
		}
		se, ok := srec.stateFor(i)
		if !ok {
			return nil, fmt.Errorf("provstore: version %d resolves node %s to %d, which has no state entry",
				version, addr, vr.stateVers[i])
		}
		tables := make(map[string]*rel.Frozen, len(se.tables))
		for _, te := range se.tables {
			runs := make([][]rel.Tuple, len(te.chunks))
			for ci, h := range te.chunks {
				blob, err := s.blobLocked(h)
				if err != nil {
					return nil, err
				}
				if runs[ci], err = decodeChunkBlob(blob); err != nil {
					return nil, err
				}
			}
			f, err := rel.RebuildFrozen(te.version, runs)
			if err != nil {
				return nil, err
			}
			tables[te.name] = f
		}
		spines := make([][][]byte, 3)
		for si, refs := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
			bufs := make([][]byte, len(refs))
			for bi, ref := range refs {
				if !ref.present {
					continue
				}
				if bufs[bi], err = s.blobLocked(ref.hash); err != nil {
					return nil, err
				}
			}
			spines[si] = bufs
		}
		view, err := provenance.RebuildView(addr, se.view.version, spines[0], spines[1], spines[2])
		if err != nil {
			return nil, err
		}
		irec, err := get(vr.infoVers[i])
		if err != nil {
			return nil, err
		}
		info, ok := irec.infoFor(i)
		if !ok {
			return nil, fmt.Errorf("provstore: version %d resolves node %s info to %d, which has no entry",
				version, addr, vr.infoVers[i])
		}
		vd.Nodes[i] = NodeData{
			Addr: addr, Tables: tables, View: view,
			Info: info, StateInfo: se.info, StateTime: srec.time,
		}
	}
	return vd, nil
}

// VersionTime returns the virtual time a version was published at.
func (s *Store) VersionTime(version uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, errors.New("provstore: store closed")
	}
	vr, err := s.findVersionLocked(version)
	if err != nil {
		return 0, err
	}
	return vr.time, nil
}

// FirstVersion answers the deep-history query class: the earliest
// retained version at which the tuple with content hash vid was
// visible at addr. Segments are probed oldest-first so the earliest
// recorded sighting wins; when history before OldestVersion has been
// retention-deleted, the answer is a (documented) upper bound.
func (s *Store) FirstVersion(addr string, vid rel.ID) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, false
	}
	key := firstSeenKey(addr, vid)
	kb := []byte(key)
	for _, seg := range s.sealed {
		if v, ok := seg.firstSeen.Get(kb); ok {
			return v, true
		}
	}
	if s.active != nil {
		if v, ok := s.active.firstSeen[key]; ok {
			return v, true
		}
	}
	return 0, false
}
