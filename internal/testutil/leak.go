// Package testutil holds shared test helpers. Its centerpiece is a
// hand-rolled goroutine-leak check (the repo vendors nothing, so no
// goleak): tests snapshot the live goroutine set up front and verify
// at cleanup that everything they started has wound down. The serving
// stack leans on goroutines whose lifetimes are easy to get subtly
// wrong — per-request batch workers, walk cancellation, daemon stdout
// scanners — and a leaked goroutine is invisible to assertions while
// quietly pinning snapshots (and their memory) forever.
package testutil

import (
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// settle bounds how long CheckGoroutines waits for goroutines to wind
// down before declaring them leaked. Shutdown is asynchronous
// (connection teardown, context propagation), so the check retries
// until the set is clean or the window closes.
const settle = 5 * time.Second

// CheckGoroutines snapshots the live goroutines and registers a
// cleanup that fails the test if goroutines created during the test
// are still running once the settle window closes. Call it first in
// the test body — cleanups run last-in-first-out, so registering
// before any t.Cleanup that tears down servers or processes means the
// leak verdict is reached after teardown finishes.
//
// Idle HTTP keep-alive connections on http.DefaultClient are closed
// during the retry loop: pooled transport goroutines are cache, not
// leaks, and closing them separates the two.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	base := map[string]bool{}
	for id := range goroutines() {
		base[id] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		var leaked []string
		for {
			http.DefaultClient.CloseIdleConnections()
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if base[id] || ignorable(stack) {
					continue
				}
				leaked = append(leaked, stack)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		sort.Strings(leaked)
		t.Errorf("%d goroutine(s) leaked by this test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// goroutines captures every live goroutine's stack, keyed by goroutine
// ID. IDs are never reused within a process run, which is what makes
// the baseline diff sound.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		stanza = strings.TrimSpace(stanza)
		if stanza == "" {
			continue
		}
		// First line: "goroutine 123 [state]:".
		fields := strings.Fields(strings.SplitN(stanza, "\n", 2)[0])
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		out[fields[1]] = stanza
	}
	return out
}

// ignorable reports whether a goroutine belongs to the runtime or the
// testing framework rather than to code under test.
func ignorable(stack string) bool {
	for _, frame := range []string{
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*T).Run(",
		"testing.runFuzzing(",
		"os/signal.signal_recv",
		"os/signal.loop",
		"runtime.ensureSigM",
		"runtime.ReadTrace",
		"runtime/trace.Start",
	} {
		if strings.Contains(stack, frame) {
			return true
		}
	}
	return false
}
