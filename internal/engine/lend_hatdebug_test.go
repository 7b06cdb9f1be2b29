//go:build hatdebug

package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
)

// panicsWith runs f and reports an error unless it panics with a message
// containing want.
func panicsWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic %v, want one saying %q", r, want)
		}
	}()
	f()
}

// poisoned reports whether every byte of b is the sanitizer's poison.
func poisoned(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{hatdebug.Poisoned}) == len(b)
}

// TestSeededDoubleRecyclePanics: the dedup entry owns its request's arena
// buffer and recycles it when the next served request replaces the entry.
// A stray Recycle of that buffer before then puts it twice, and the
// sanitizer panics at the second put.
func TestSeededDoubleRecyclePanics(t *testing.T) {
	env, srvEng, cliEng := testCluster(33)
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		if fn == 1 {
			return req
		}
		return nil
	})
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		// An echo of a request served in place: the response is copied into
		// an arena buffer the entry keeps.
		if _, err := c.Call(p, 1, pattern(100), CallOpts{Proto: DirectWriteIMM, Busy: true}); err != nil {
			t.Error(err)
		}
		s := srv.Conns()[0]
		s.Recycle(s.dedup.req) // the seeded bug
		// No response, so no arena buffer is taken before the entry is replaced.
		c.Call(p, 2, pattern(100), CallOpts{Proto: DirectWriteIMM, Busy: true})
		t.Error("the entry was replaced without a panic")
		env.Stop()
	})
	panicsWith(t, "recycled twice", func() { env.Run() })
}

// TestEndedLoansArePoisoned: a window onto the direct region is poisoned
// when its loan ends — a request's when its handler returns, an Invoke
// response's when the connection's next call starts — and handing one to
// Recycle panics.
func TestEndedLoansArePoisoned(t *testing.T) {
	env, srvEng, cliEng := testCluster(34)
	var kept []byte
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		kept = req // the bug: the request is kept past the handler
		return append(ResponseStage(p), req...)
	})
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		req := pattern(1000)
		out, err := c.Invoke(p, 1, req, CallOpts{Proto: DirectWriteIMM, Busy: true})
		if err != nil || !bytes.Equal(out, req) {
			t.Fatalf("Invoke: %d bytes, err %v", len(out), err)
		}
		if !poisoned(kept) {
			t.Error("a request kept past its handler is not poisoned")
		}
		panicsWith(t, "direct region", func() { c.Recycle(out) })
		// The next response comes through the eager ring, so nothing but the
		// poison overwrites the window.
		if _, err := c.Invoke(p, 1, req, CallOpts{Proto: DirectWriteIMM, RespProto: EagerSendRecv, Busy: true}); err != nil {
			t.Fatal(err)
		}
		if !poisoned(out) {
			t.Error("an Invoke response kept past the next call is not poisoned")
		}
	})
	env.Run()
}
