package nettransport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Options tunes a Transport. The zero value gives sane defaults.
type Options struct {
	// Listener, when non-nil, is used instead of listening on
	// peers[self] — tests use it to bind ephemeral ports before the
	// address list is assembled.
	Listener net.Listener
	// DialBackoff is the initial delay between failed dial attempts;
	// it doubles per attempt up to 32x. Default 25ms.
	DialBackoff time.Duration
	// DialTimeout bounds the total time spent connecting to one peer
	// (0 means wait until ctx is done). Default 10s.
	DialTimeout time.Duration
	// RetryInterval is how long Exchange waits for a missing peer
	// payload before re-requesting it with a FrameNeed. Default 100ms.
	RetryInterval time.Duration
	// MaxRetries bounds the re-request rounds per Exchange before it
	// fails with a StallError. Default 50.
	MaxRetries int
	// SendFilter, when non-nil, intercepts every outbound frame to dst
	// and returns the frames actually written, enabling fault
	// injection: nil drops the frame, repeating it duplicates it, and
	// buffering frames across calls reorders or delays them. Frames it
	// returns are written back-to-back. Handshake (Hello) and teardown
	// (Bye) frames bypass the filter: faults target the data plane. May
	// be called from multiple goroutines; policies must synchronize.
	// Test-only.
	SendFilter func(dst int, frame []byte) [][]byte
}

func (o *Options) withDefaults() {
	if o.DialBackoff <= 0 {
		o.DialBackoff = 25 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 100 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 50
	}
}

// ErrClosed is returned by Exchange on a transport that was Closed (or
// whose dial context ended).
var ErrClosed = errors.New("nettransport: closed")

// PeerError reports a peer that left — gracefully (Bye) or by
// connection failure — while its payload was still needed.
type PeerError struct {
	Peer int
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("nettransport: peer %d gone: %v", e.Peer, e.Err)
}
func (e *PeerError) Unwrap() error { return e.Err }

// StallError reports an Exchange that exhausted its re-request budget
// with peers still missing: the protocol fails loudly rather than
// waiting forever or proceeding with partial data.
type StallError struct {
	Step    uint64
	Phase   uint8
	Missing []int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("nettransport: exchange step %d phase %d stalled: no payload from peers %v", e.Step, e.Phase, e.Missing)
}

type exKey struct {
	step  uint64
	phase uint8
}

type exSlot struct {
	payloads [][]byte
	got      []bool
}

// Transport is the TCP simnet.Transport: a full mesh where every member
// dials every peer (the dialed connection carries its frames out;
// accepted connections carry peers' frames in, so no connection-identity
// tie-breaking is needed). Exchange broadcasts a FrameData per peer and
// blocks until every peer's frame for the same (step, phase) arrived,
// re-requesting lost frames via FrameNeed from each sender's resend
// buffer. It implements simnet.Transport.
type Transport struct {
	self int
	size int
	opts Options

	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    map[exKey]*exSlot
	resend   map[exKey][]byte // own encoded FrameData per recent exchange
	gone     []error          // per-rank: why the peer left, nil if alive
	accepted map[net.Conn]bool
	closed   bool

	sendMu []sync.Mutex
	conns  []net.Conn

	wg sync.WaitGroup
}

// Dial builds the mesh member self of the deployment described by
// peers (peers[rank] is rank's listen address). It listens first, then
// dials every peer with exponential backoff until the peer accepts,
// opts.DialTimeout elapses, or ctx is done — a peer that is slow to
// start is waited for; one that never comes up fails the whole Dial
// (with the listener and any established connections torn down again).
// ctx also scopes the transport's lifetime: cancel it and every blocked
// Exchange returns ErrClosed.
func Dial(ctx context.Context, self int, peers []string, opts Options) (*Transport, error) {
	opts.withDefaults()
	if self < 0 || self >= len(peers) {
		return nil, fmt.Errorf("nettransport: self %d out of range over %d peers", self, len(peers))
	}
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", peers[self])
		if err != nil {
			return nil, fmt.Errorf("nettransport: listen %s: %w", peers[self], err)
		}
	}
	tctx, cancel := context.WithCancel(ctx)
	t := &Transport{
		self:     self,
		size:     len(peers),
		opts:     opts,
		ctx:      tctx,
		cancel:   cancel,
		ln:       ln,
		inbox:    map[exKey]*exSlot{},
		resend:   map[exKey][]byte{},
		gone:     make([]error, len(peers)),
		accepted: map[net.Conn]bool{},
		sendMu:   make([]sync.Mutex, len(peers)),
		conns:    make([]net.Conn, len(peers)),
	}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(1)
	go t.acceptLoop()

	var dialWG sync.WaitGroup
	dialErrs := make([]error, len(peers))
	for rank := range peers {
		if rank == self {
			continue
		}
		dialWG.Add(1)
		go func(rank int) {
			defer dialWG.Done()
			dialErrs[rank] = t.dialPeer(rank, peers[rank])
		}(rank)
	}
	dialWG.Wait()
	for rank, err := range dialErrs {
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("nettransport: member %d: connect to peer %d (%s): %w", self, rank, peers[rank], err)
		}
	}
	return t, nil
}

// dialPeer connects to one peer with backoff, honoring both the dial
// deadline and context cancellation, then introduces itself.
func (t *Transport) dialPeer(rank int, addr string) error {
	backoff := t.opts.DialBackoff
	ctx, cancel := context.WithTimeout(t.ctx, t.opts.DialTimeout)
	defer cancel()
	var d net.Dialer
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			hello := EncodeFrame(Frame{Type: FrameHello, From: uint16(t.self)})
			if _, werr := conn.Write(hello); werr != nil {
				conn.Close()
				return werr
			}
			t.sendMu[rank].Lock()
			t.conns[rank] = conn
			t.sendMu[rank].Unlock()
			return nil
		}
		// Retry after backoff; the peer process may still be starting.
		// The timer is real time by necessity — this is the one layer of
		// the system that talks to an actual network.
		timer := time.NewTimer(backoff) //lint:allow walltime dial backoff over a real TCP connection
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("%w (last dial error: %v)", ctx.Err(), err)
		case <-timer.C:
		}
		if backoff < 32*t.opts.DialBackoff {
			backoff *= 2
		}
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		// Track the inbound connection so Close can unblock its reader.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop drains one accepted connection: a Hello introduces the
// sending peer, then its Data/Need/Bye frames are dispatched until the
// stream ends or turns corrupt.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	hello, err := DecodeFrame(br)
	if err != nil || hello.Type != FrameHello || int(hello.From) >= t.size {
		return // not a member; drop the connection
	}
	rank := int(hello.From)
	for {
		f, err := DecodeFrame(br)
		if err != nil {
			t.peerGone(rank, err)
			return
		}
		switch f.Type {
		case FrameData:
			t.deliver(rank, f)
		case FrameNeed:
			t.handleNeed(rank, f)
		case FrameBye:
			t.peerGone(rank, errors.New("peer closed gracefully"))
			return
		}
	}
}

// peerGone records why a peer's stream ended and wakes waiters. After
// our own Close the teardown is expected and not recorded.
func (t *Transport) peerGone(rank int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.gone[rank] != nil {
		return
	}
	t.gone[rank] = err
	t.cond.Broadcast()
}

// deliver stores a peer's exchange payload, first frame wins: the
// repair path re-sends frames, and a fault filter may duplicate them,
// so later copies for the same (step, phase, peer) are dropped.
func (t *Transport) deliver(rank int, f Frame) {
	k := exKey{f.Step, f.Phase}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	s := t.inbox[k]
	if s == nil {
		s = &exSlot{payloads: make([][]byte, t.size), got: make([]bool, t.size)}
		t.inbox[k] = s
	}
	if s.got[rank] {
		return
	}
	s.got[rank] = true
	s.payloads[rank] = f.Payload
	t.cond.Broadcast()
}

// handleNeed re-sends our FrameData for the requested exchange from the
// resend buffer. A request for an exchange we have not reached (or have
// already garbage-collected) is ignored; the peer re-requests.
func (t *Transport) handleNeed(rank int, f Frame) {
	k := exKey{f.Step, f.Phase}
	t.mu.Lock()
	frame := t.resend[k]
	t.mu.Unlock()
	if frame != nil {
		// Through the fault filter like any data send: a repair re-send
		// is subject to the same simulated faults as the original.
		t.sendFrame(rank, frame)
	}
}

// sendFrame routes one outbound frame through the fault filter (when
// installed) and writes the surviving frames to the peer.
func (t *Transport) sendFrame(rank int, frame []byte) {
	frames := [][]byte{frame}
	if t.opts.SendFilter != nil {
		frames = t.opts.SendFilter(rank, frame)
	}
	t.writeFrames(rank, frames)
}

// writeFrames writes raw frames to a peer, serialized per connection
// (Exchange broadcasts and Need replies run on different goroutines).
// Write errors are not reported here: a broken outbound stream shows up
// at the peer as a missing payload and is repaired — or loudly timed
// out — by the exchange protocol.
func (t *Transport) writeFrames(rank int, frames [][]byte) {
	t.sendMu[rank].Lock()
	defer t.sendMu[rank].Unlock()
	conn := t.conns[rank]
	if conn == nil {
		return
	}
	for _, fb := range frames {
		if fb == nil {
			continue
		}
		if _, err := conn.Write(fb); err != nil {
			return
		}
	}
}

// Self returns this member's rank.
func (t *Transport) Self() int { return t.self }

// Size returns the mesh size.
func (t *Transport) Size() int { return t.size }

// Exchange implements simnet.Transport: broadcast payload for (step,
// phase), gather every peer's payload for the same exchange, repair
// losses by re-requesting, and fail loudly (PeerError, StallError,
// ErrClosed) when the exchange cannot complete.
func (t *Transport) Exchange(step uint64, phase uint8, payload []byte) ([][]byte, error) {
	k := exKey{step, phase}
	own := EncodeFrame(Frame{Type: FrameData, From: uint16(t.self), Phase: phase, Step: step, Payload: payload})
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.resend[k] = own
	t.mu.Unlock()

	for rank := 0; rank < t.size; rank++ {
		if rank != t.self {
			t.sendFrame(rank, own)
		}
	}

	for retries := 0; ; retries++ {
		t.mu.Lock()
		// Wait until complete, closed, a needed peer left, or the retry
		// timer fires — whichever first.
		fired := false
		// Wall-clock by necessity: the retransmit timeout of a real
		// network protocol cannot run on virtual time.
		timer := time.AfterFunc(t.opts.RetryInterval, func() { //lint:allow walltime retransmit timeout of the TCP exchange protocol
			t.mu.Lock()
			fired = true
			t.cond.Broadcast()
			t.mu.Unlock()
		})
		var missing []int
		for {
			missing = t.missingLocked(k)
			if len(missing) == 0 || t.closed || fired || t.anyGoneLocked(missing) {
				break
			}
			t.cond.Wait()
		}
		timer.Stop()
		if t.closed || t.ctx.Err() != nil {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		if len(missing) == 0 {
			// A 1-member mesh has no peers, so no inbox slot exists.
			out := make([][]byte, t.size)
			if s := t.inbox[k]; s != nil {
				copy(out, s.payloads)
			}
			out[t.self] = nil
			t.gcLocked(step)
			t.mu.Unlock()
			return out, nil
		}
		for _, rank := range missing {
			if err := t.gone[rank]; err != nil {
				t.mu.Unlock()
				return nil, &PeerError{Peer: rank, Err: err}
			}
		}
		if retries >= t.opts.MaxRetries {
			t.mu.Unlock()
			return nil, &StallError{Step: step, Phase: phase, Missing: missing}
		}
		t.mu.Unlock()
		// Receiver-driven repair: ask each missing peer to re-send.
		need := EncodeFrame(Frame{Type: FrameNeed, From: uint16(t.self), Phase: phase, Step: step})
		for _, rank := range missing {
			t.sendFrame(rank, need)
		}
	}
}

// missingLocked lists the peer ranks whose payload for k has not
// arrived. Caller holds mu.
func (t *Transport) missingLocked(k exKey) []int {
	s := t.inbox[k]
	var missing []int
	for rank := 0; rank < t.size; rank++ {
		if rank == t.self {
			continue
		}
		if s == nil || !s.got[rank] {
			missing = append(missing, rank)
		}
	}
	return missing
}

func (t *Transport) anyGoneLocked(ranks []int) bool {
	for _, r := range ranks {
		if t.gone[r] != nil {
			return true
		}
	}
	return false
}

// gcLocked drops inbox and resend state older than the exchange that
// just completed, keeping a two-step tail so a slower peer can still
// repair the previous exchanges. Caller holds mu.
func (t *Transport) gcLocked(step uint64) {
	if step < 2 {
		return
	}
	floor := step - 2
	var dead []exKey
	for k := range t.inbox {
		if k.step < floor {
			dead = append(dead, k)
		}
	}
	for _, k := range dead {
		delete(t.inbox, k)
	}
	dead = dead[:0]
	for k := range t.resend {
		if k.step < floor {
			dead = append(dead, k)
		}
	}
	for _, k := range dead {
		delete(t.resend, k)
	}
}

// Close tears the member down gracefully: wake local waiters, announce
// Bye to every peer (so their Exchanges fail with a PeerError instead
// of stalling), then close the listener and all connections and wait
// for every goroutine to drain. Idempotent.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()

	bye := EncodeFrame(Frame{Type: FrameBye, From: uint16(t.self)})
	for rank := 0; rank < t.size; rank++ {
		if rank != t.self {
			t.writeFrames(rank, [][]byte{bye})
		}
	}
	t.cancel()
	t.ln.Close()
	// Close inbound connections too: their readers block in DecodeFrame
	// and would otherwise hold wg.Wait forever.
	t.mu.Lock()
	for conn := range t.accepted {
		conn.Close()
	}
	t.mu.Unlock()
	for rank := range t.conns {
		t.sendMu[rank].Lock()
		if t.conns[rank] != nil {
			t.conns[rank].Close()
			t.conns[rank] = nil
		}
		t.sendMu[rank].Unlock()
	}
	t.wg.Wait()
	return nil
}

// SplitPeers parses the -peers flag value: a comma-separated list of
// host:port addresses whose order defines member ranks (the list must
// be identical, in the same order, in every process).
func SplitPeers(s string) ([]string, error) {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			p := s[start:i]
			if p == "" {
				return nil, fmt.Errorf("nettransport: empty peer address in %q", s)
			}
			if _, _, err := net.SplitHostPort(p); err != nil {
				return nil, fmt.Errorf("nettransport: bad peer address %q: %w", p, err)
			}
			out = append(out, p)
			start = i + 1
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("nettransport: need at least 2 peers, got %d", len(out))
	}
	return out, nil
}
