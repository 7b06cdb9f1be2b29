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
	pkt := src.held.pkt
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

// TestBypassedClaimPanics: a payload written over without MR.Claim no
// longer holds the bytes it was posted with. The sanitizer's copy taken at
// post catches it when the bytes are next read — by the NIC landing them,
// or, once they landed by reference, by the claim on the source that
// copies them in — naming the opcode, the region and the poster.
func TestBypassedClaimPanics(t *testing.T) {
	for _, op := range []Opcode{OpSend, OpWrite, OpRead} {
		for _, landed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/landed=%v", op, landed), func(t *testing.T) {
				env := sim.NewEnv(1)
				a, b := testPair(env)
				msg := []byte("posted bytes")
				src, dst := a.pd.RegisterMRNoCost(len(msg)), b.pd.RegisterMRNoCost(len(msg))
				if op == OpRead {
					src, dst = b.pd.RegisterMRNoCost(len(msg)), a.pd.RegisterMRNoCost(len(msg))
				}
				copy(src.Claim(0, len(msg)), msg)
				inFlight(t, env, a, b, op, src, dst)
				if landed {
					env.Run()
					if dst.landed == nil {
						t.Fatal("the payload did not land by reference")
					}
				}
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
				if landed {
					src.Claim(0, len(msg))
				}
				env.Run()
			})
		}
	}
}

// TestEndedLoanIsPoisoned: a window the host was lent is poisoned when its
// loan ends — in the region when nothing claimed it, and in the array the
// region moved away from when a claim did.
func TestEndedLoanIsPoisoned(t *testing.T) {
	for _, moved := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", moved), func(t *testing.T) {
			env := sim.NewEnv(1)
			a, _ := testPair(env)
			mr := a.pd.RegisterMRNoCost(64)
			copy(mr.Claim(0, 64), bytes.Repeat([]byte("lent"), 16))
			w := mr.Lend(16, 32)
			if moved {
				copy(mr.Claim(0, 20), bytes.Repeat([]byte{'x'}, 20))
			}
			if a.dev.vm.moves.Value() != map[bool]int64{false: 0, true: 1}[moved] {
				t.Fatalf("%d region moves, want one exactly when a claim overlapped the window", a.dev.vm.moves.Value())
			}
			mr.EndLend()
			if bytes.Count(w, []byte{hatdebug.Poisoned}) != len(w) {
				t.Errorf("the window is not poisoned at its loan's end: %q", w)
			}
			if moved && !bytes.Equal(mr.Bytes()[:20], bytes.Repeat([]byte{'x'}, 20)) {
				t.Errorf("the poison reached the moved region: %q", mr.Bytes()[:20])
			}
		})
	}
}

// TestEndedLoanOfALandingSparesItsSource: a hatdebug build lends a range
// that landed by reference from the region's own bytes, copied in first,
// so the poison at the loan's end lands there and never in the source a
// retransmission or a dedup entry may still read.
func TestEndedLoanOfALandingSparesItsSource(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	msg := []byte("the source keeps these")
	src, dst := a.pd.RegisterMRNoCost(len(msg)), b.pd.RegisterMRNoCost(len(msg))
	copy(src.Claim(0, len(msg)), msg)
	inFlight(t, env, a, b, OpWrite, src, dst)
	env.Run()
	w := dst.Lend(0, len(msg))
	if &w[0] != &dst.buf[0] {
		t.Fatal("a hatdebug Lend lent the source window")
	}
	dst.EndLend()
	if !bytes.Equal(src.Bytes(), msg) {
		t.Errorf("the source reads %q after the loan ended, want %q", src.Bytes(), msg)
	}
	if bytes.Count(dst.Bytes(), []byte{hatdebug.Poisoned}) != len(msg) {
		t.Errorf("the ended loan is not poisoned in the region: %q", dst.Bytes())
	}
}
