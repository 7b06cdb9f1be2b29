package verbs

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
)

// inFlight posts one op of the payload in src (a's region for a send or
// WRITE, b's for a READ) and runs the simulation until a packet holds a
// window onto src: at once for a posted op, once the responder has served
// it for a READ. b has a RECV posted into dst for the two-sided ops.
func inFlight(t *testing.T, env *sim.Env, a, b side, op Opcode, src, dst *MR) {
	t.Helper()
	n := src.Len()
	b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: dst, Len: n}})
	env.Spawn("poster", func(p *sim.Proc) {
		wr := &SendWR{WRID: 7, Op: op, SGE: SGE{MR: src, Len: n}, Remote: dst.RKey(), Imm: 3}
		if op == OpRead {
			wr.SGE.MR, wr.Remote = dst, src.RKey()
		}
		a.qp.PostSend(p, wr)
	})
	for src.held == nil {
		if env.Now() > 1_000_000 {
			t.Fatal("no packet ever held the source range")
		}
		env.RunUntil(env.Now() + 10)
	}
}

// TestHostWriteBeforeLandingKeepsPostBytes is the NIC's buffer contract:
// the payload of every op is read where it lies when the packet lands,
// and a host write to a range a packet still holds first gives it a copy
// of the post-time bytes — exactly one, back in the arena once the packet
// has landed. A packet nothing overwrites costs no copy at all.
func TestHostWriteBeforeLandingKeepsPostBytes(t *testing.T) {
	posted := []byte("the bytes at post time, 40 of them......")
	for _, op := range []Opcode{OpSend, OpSendImm, OpWrite, OpWriteImm, OpRead} {
		for _, rewrite := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/rewrite=%v", op, rewrite), func(t *testing.T) {
				env := sim.NewEnv(1)
				a, b := testPair(env)
				n := len(posted)
				src, dst := a.pd.RegisterMRNoCost(n), b.pd.RegisterMRNoCost(n)
				if op == OpRead {
					src, dst = b.pd.RegisterMRNoCost(n), a.pd.RegisterMRNoCost(n)
				}
				owner := src.pd.dev
				copy(src.Claim(0, n), posted)
				inFlight(t, env, a, b, op, src, dst)
				var held []byte
				if rewrite {
					pkt := src.held
					copy(src.Claim(0, n), bytes.Repeat([]byte{'x'}, n))
					if src.held != nil || pkt.src != nil {
						t.Fatal("the packet still holds the region after Claim")
					}
					held = pkt.payload
				}
				env.Run()
				if !bytes.Equal(dst.Bytes(), posted) {
					t.Fatalf("delivered %q, want the post-time %q", dst.Bytes(), posted)
				}
				want := int64(0)
				if rewrite {
					want = 1
				}
				if got := owner.vm.copies.Value(); got != want {
					t.Errorf("%d payload copies, want %d", got, want)
				}
				if src.held != nil {
					t.Error("a packet still holds the source after landing")
				}
				if rewrite && !owner.Holds(held) {
					t.Error("the packet's copy is not back in the arena after landing")
				}
			})
		}
	}
}

// TestLostPacketsLetGo: a packet that never lands lets go of its window
// all the same — ones a crash of their sender finds being fetched, still
// queued or already on the wire, one pending at a receiver that crashes
// before posting a RECV, and one whose RNR retries run out — so no later
// write of the range pays a copy for it. A region deregistered while a packet holds it gives the
// packet its copy (the host may reuse the memory at once), which the
// landing still delivers and then returns to the arena.
func TestLostPacketsLetGo(t *testing.T) {
	msg := []byte("a payload that never lands")
	for _, c := range []string{"sender crash at post", "sender crash on the wire", "receiver crash while pending", "RNR retries exhausted", "deregistered"} {
		t.Run(c, func(t *testing.T) {
			env := sim.NewEnv(1)
			a, b := testPair(env)
			n := len(msg)
			src, dst := a.pd.RegisterMRNoCost(n), b.pd.RegisterMRNoCost(n)
			copy(src.Claim(0, n), msg)
			post := func(wr *SendWR) {
				env.Spawn("poster", func(p *sim.Proc) { a.qp.PostSend(p, wr) })
			}
			runUntil := func(done func() bool) {
				for !done() {
					if env.Now() > 1_000_000 {
						t.Fatal("the packet never reached the state the case crashes in")
					}
					env.RunUntil(env.Now() + 10)
				}
			}
			var copied []byte
			switch c {
			case "sender crash at post":
				// Two WRs: the send engine fetches one, the other waits behind it.
				post(&SendWR{Op: OpSend, SGE: SGE{MR: src, Len: n}, Next: &SendWR{Op: OpSend, SGE: SGE{MR: src, Len: n}}})
				runUntil(func() bool { return a.dev.txPkt != nil && a.dev.txq.Len() == 1 })
				a.dev.node.Crash()
			case "sender crash on the wire":
				post(&SendWR{Op: OpSend, SGE: SGE{MR: src, Len: n}})
				runUntil(func() bool { return src.held != nil && a.dev.txPkt == nil && a.dev.txq.Len() == 0 })
				a.dev.node.Crash()
			case "receiver crash while pending":
				post(&SendWR{Op: OpSend, SGE: SGE{MR: src, Len: n}})
				runUntil(func() bool { return b.qp.pending.Len() == 1 })
				b.dev.node.Crash()
			case "RNR retries exhausted":
				b.qp.SetRNR(0)
				post(&SendWR{Op: OpSend, SGE: SGE{MR: src, Len: n}})
			case "deregistered":
				inFlight(t, env, a, b, OpWrite, src, dst)
				pkt := src.held
				src.Deregister()
				copied = pkt.payload
				copy(src.Bytes(), bytes.Repeat([]byte{'x'}, n)) // reused memory
			}
			env.Run()
			if src.held != nil {
				t.Fatal("a packet still holds the source")
			}
			if c != "deregistered" {
				src.Claim(0, n)
				if got := a.dev.vm.copies.Value(); got != 0 {
					t.Errorf("%d payload copies, want none", got)
				}
				return
			}
			if !bytes.Equal(dst.Bytes(), msg) {
				t.Errorf("delivered %q, want the post-time %q", dst.Bytes(), msg)
			}
			if got := a.dev.vm.copies.Value(); got != 1 {
				t.Errorf("%d payload copies, want 1", got)
			}
			if !a.dev.Holds(copied) {
				t.Error("the packet's copy is not back in the arena after landing")
			}
		})
	}
}
