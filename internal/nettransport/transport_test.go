package nettransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/testutil"
)

var _ simnet.Transport = (*Transport)(nil)

// listenLocal binds n ephemeral loopback ports up front so the full
// rank→address list exists before any member dials.
func listenLocal(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// dialMesh brings up a full n-member mesh over real loopback sockets.
// optsOf lets a test give individual members distinct fault policies.
func dialMesh(t *testing.T, n int, optsOf func(rank int) Options) []*Transport {
	t.Helper()
	lns, addrs := listenLocal(t, n)
	ts := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Options{}
			if optsOf != nil {
				opts = optsOf(i)
			}
			opts.Listener = lns[i]
			ts[i], errs[i] = Dial(context.Background(), i, addrs, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial member %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// runExchanges drives every member through the same sequence of
// exchanges and asserts each sees every peer's payload, intact and
// correctly indexed by rank.
func runExchanges(t *testing.T, ts []*Transport, steps int) {
	t.Helper()
	n := len(ts)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for step := uint64(1); step <= uint64(steps); step++ {
				for _, phase := range []uint8{1, 2} {
					payload := []byte(fmt.Sprintf("m%d/s%d/p%d", self, step, phase))
					got, err := ts[self].Exchange(step, phase, payload)
					if err != nil {
						errs <- fmt.Errorf("member %d step %d phase %d: %w", self, step, phase, err)
						return
					}
					if len(got) != n {
						errs <- fmt.Errorf("member %d: got %d slots, want %d", self, len(got), n)
						return
					}
					for rank, pl := range got {
						if rank == self {
							if pl != nil {
								errs <- fmt.Errorf("member %d: own slot not nil", self)
								return
							}
							continue
						}
						want := fmt.Sprintf("m%d/s%d/p%d", rank, step, phase)
						if string(pl) != want {
							errs <- fmt.Errorf("member %d step %d phase %d from %d: got %q want %q", self, step, phase, rank, pl, want)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExchangeOverSockets is the clean-network baseline: a 3-member
// mesh over real loopback TCP completes many exchanges with every
// payload intact, and tears down without leaking a goroutine.
func TestExchangeOverSockets(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := dialMesh(t, 3, nil)
	runExchanges(t, ts, 12)
	for _, tr := range ts {
		if err := tr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// faultPolicy is a mutex-guarded SendFilter base for the fault tests.
type faultPolicy struct {
	mu sync.Mutex
	fn func(dst int, frame []byte) [][]byte
}

func (p *faultPolicy) filter(dst int, frame []byte) [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fn(dst, frame)
}

// TestExchangeRepairsDroppedFrames drops a prefix of member 0's data
// frames; receiver-driven Need retransmits must repair the loss and the
// exchanges still converge with correct payloads.
func TestExchangeRepairsDroppedFrames(t *testing.T) {
	testutil.CheckGoroutines(t)
	drops := 3
	p := &faultPolicy{}
	p.fn = func(dst int, frame []byte) [][]byte {
		if drops > 0 {
			drops--
			return nil
		}
		return [][]byte{frame}
	}
	ts := dialMesh(t, 3, func(rank int) Options {
		if rank != 0 {
			return Options{}
		}
		return Options{RetryInterval: 20 * time.Millisecond, SendFilter: p.filter}
	})
	runExchanges(t, ts, 6)
}

// TestExchangeToleratesDuplicatesAndReorder duplicates every frame and
// holds one back per destination, releasing it in front of the next
// frame — out-of-order and double delivery at the receiver. Keep-first
// dedup and (step, phase) indexing must keep the results exact.
func TestExchangeToleratesDuplicatesAndReorder(t *testing.T) {
	testutil.CheckGoroutines(t)
	held := map[int][]byte{}
	p := &faultPolicy{}
	p.fn = func(dst int, frame []byte) [][]byte {
		prev := held[dst]
		cp := make([]byte, len(frame))
		copy(cp, frame)
		held[dst] = cp
		if prev == nil {
			return nil // delay: first frame to each peer waits for the next send
		}
		// Release current before the held older frame (reorder), each
		// twice (duplicate).
		return [][]byte{frame, frame, prev, prev}
	}
	ts := dialMesh(t, 3, func(rank int) Options {
		if rank != 1 {
			return Options{}
		}
		return Options{RetryInterval: 20 * time.Millisecond, SendFilter: p.filter}
	})
	runExchanges(t, ts, 6)
}

// TestExchangeStallsLoudly blackholes every data-plane frame out of
// member 0 (originals and Need repairs alike): member 1 must give up
// with a typed StallError naming the silent peer, not hang and not
// fabricate a result.
func TestExchangeStallsLoudly(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := &faultPolicy{}
	p.fn = func(dst int, frame []byte) [][]byte { return nil }
	ts := dialMesh(t, 2, func(rank int) Options {
		if rank != 0 {
			return Options{RetryInterval: 10 * time.Millisecond, MaxRetries: 4}
		}
		return Options{RetryInterval: 10 * time.Millisecond, MaxRetries: 4, SendFilter: p.filter}
	})

	done := make(chan error, 1)
	go func() {
		_, err := ts[1].Exchange(1, 1, []byte("m1"))
		done <- err
	}()
	// Member 0 receives member 1's payload, so its own exchange
	// completes; only member 1 starves.
	if _, err := ts[0].Exchange(1, 1, []byte("m0")); err != nil {
		t.Fatalf("member 0 exchange: %v", err)
	}
	err := <-done
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("member 1: got %v, want StallError", err)
	}
	if stall.Step != 1 || stall.Phase != 1 || len(stall.Missing) != 1 || stall.Missing[0] != 0 {
		t.Fatalf("stall error mis-attributed: %+v", stall)
	}
}

// TestPeerCloseFailsExchange: a peer that goes away gracefully mid-wait
// surfaces as a typed PeerError at the blocked member.
func TestPeerCloseFailsExchange(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := dialMesh(t, 2, nil)
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Exchange(1, 1, []byte("m0"))
		done <- err
	}()
	ts[1].Close()
	err := <-done
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PeerError", err)
	}
	if pe.Peer != 1 {
		t.Fatalf("wrong peer blamed: %+v", pe)
	}
}

// TestCloseUnblocksOwnExchange: closing a member while it waits returns
// ErrClosed to its own blocked Exchange, and the teardown drains every
// goroutine.
func TestCloseUnblocksOwnExchange(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := dialMesh(t, 2, nil)
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Exchange(1, 1, []byte("m0"))
		done <- err
	}()
	// Let the exchange reach its wait, then tear the member down.
	time.Sleep(10 * time.Millisecond)
	ts[0].Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	ts[1].Close()
}

// TestSingleMemberExchange: a 1-member mesh has no peer to wait for, so
// Exchange returns at once with just its own empty slot, and a deferred
// Close still returns. The transport is dialed by hand rather than via
// dialMesh so a wedged Close fails this test instead of hanging cleanup.
func TestSingleMemberExchange(t *testing.T) {
	lns, addrs := listenLocal(t, 1)
	tr, err := Dial(context.Background(), 0, addrs, Options{Listener: lns[0]})
	if err != nil {
		t.Fatal(err)
	}
	var reps [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer tr.Close()
		reps, err = tr.Exchange(1, 1, []byte("solo"))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange then Close on a 1-member mesh did not return")
	}
	if err != nil || len(reps) != 1 || reps[0] != nil {
		t.Fatalf("Exchange = %q, %v; want [nil], nil", reps, err)
	}
}

// TestDialPeerNeverUp: dialing a mesh whose peer never comes up must
// honor context cancellation — the backoff loop exits promptly, Dial
// fails with the context error, and nothing leaks (listener, accept
// loop, half-established connections all torn down).
func TestDialPeerNeverUp(t *testing.T) {
	testutil.CheckGoroutines(t)
	// A dead address: bind a port, then free it again.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = Dial(ctx, 0, []string{ln.Addr().String(), deadAddr}, Options{
		Listener:    ln,
		DialBackoff: 5 * time.Millisecond,
		DialTimeout: time.Minute, // cancellation, not the deadline, must end the wait
	})
	if err == nil {
		t.Fatal("Dial succeeded against a dead peer")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("dial ignored cancellation for %v", waited)
	}
}

// TestDialTimeout: with no external cancellation, DialTimeout bounds
// the retry loop.
func TestDialTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(context.Background(), 0, []string{ln.Addr().String(), deadAddr}, Options{
		Listener:    ln,
		DialBackoff: 5 * time.Millisecond,
		DialTimeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded in the chain", err)
	}
}

// TestSlowJoinerIsWaitedFor: a peer that starts late is retried until
// it appears; the mesh then works normally.
func TestSlowJoinerIsWaitedFor(t *testing.T) {
	testutil.CheckGoroutines(t)
	lns, addrs := listenLocal(t, 2)
	// Member 1 joins only after member 0 has been retrying for a while.
	var ts [2]*Transport
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ts[0], errs[0] = Dial(context.Background(), 0, addrs, Options{Listener: lns[0], DialBackoff: 5 * time.Millisecond})
	}()
	go func() {
		defer wg.Done()
		time.Sleep(60 * time.Millisecond)
		ts[1], errs[1] = Dial(context.Background(), 1, addrs, Options{Listener: lns[1], DialBackoff: 5 * time.Millisecond})
	}()
	wg.Wait()
	for i, err := range errs[:] {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	defer ts[0].Close()
	defer ts[1].Close()
	runExchanges(t, ts[:], 3)
}

// TestSplitPeers covers the -peers flag parser.
func TestSplitPeers(t *testing.T) {
	got, err := SplitPeers("127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "127.0.0.1:7003" {
		t.Fatalf("bad parse: %v", got)
	}
	for _, bad := range []string{"", "127.0.0.1:1", "a:1,,b:2", "host-no-port,x:2"} {
		if _, err := SplitPeers(bad); err == nil {
			t.Fatalf("SplitPeers(%q) accepted", bad)
		}
	}
}
