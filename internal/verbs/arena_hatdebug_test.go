//go:build hatdebug

package verbs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
)

// TestSnapshotDoublePutPanics: the copy a packet takes of its payload
// when the host claims the range before it lands goes back to the arena
// poisoned once the packet has landed, and handing it back again while
// the arena holds it panics, as a payload the engine recycles twice does.
func TestSnapshotDoublePutPanics(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	msg := []byte("a payload the host rewrote before it landed")
	src, dst := a.pd.RegisterMRNoCost(len(msg)), b.pd.RegisterMRNoCost(len(msg))
	copy(src.Claim(0, len(msg)), msg)
	inFlight(t, env, a, b, OpWrite, src, dst)
	pkt := src.held
	src.Claim(0, len(msg))
	own := pkt.payload
	env.Run()
	if bytes.Count(own, []byte{hatdebug.Poisoned}) != len(own) {
		t.Errorf("a landed packet's copy is not poisoned: %q", own)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled twice") {
			t.Errorf("panic %v, want one saying %q", r, "recycled twice")
		}
	}()
	a.dev.Put(own)
}

// TestBypassedClaimPanics: a payload written over between post and
// landing without MR.Claim no longer holds the bytes it was posted with.
// The sanitizer's copy taken at post catches it as the NIC reads the
// payload, naming the opcode, the region and the poster.
func TestBypassedClaimPanics(t *testing.T) {
	for _, op := range []Opcode{OpSend, OpWrite, OpRead} {
		t.Run(op.String(), func(t *testing.T) {
			env := sim.NewEnv(1)
			a, b := testPair(env)
			msg := []byte("posted bytes")
			src, dst := a.pd.RegisterMRNoCost(len(msg)), b.pd.RegisterMRNoCost(len(msg))
			if op == OpRead {
				src, dst = b.pd.RegisterMRNoCost(len(msg)), a.pd.RegisterMRNoCost(len(msg))
			}
			copy(src.Claim(0, len(msg)), msg)
			inFlight(t, env, a, b, op, src, dst)
			src.Bytes()[0] = 'X' // the bypass
			want := []string{op.String(), fmt.Sprintf("MR %d [0, %d)", src.lkey, len(msg)), "verbs.inFlight"}
			if op == OpRead {
				want[0] = "READ response"
			}
			defer func() {
				r := fmt.Sprint(recover())
				for _, w := range want {
					if !strings.Contains(r, w) {
						t.Errorf("panic %q does not name %q", r, w)
					}
				}
			}()
			env.Run()
		})
	}
}
