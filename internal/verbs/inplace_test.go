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
					pkt := src.held.pkt
					copy(src.Claim(0, n), bytes.Repeat([]byte{'x'}, n))
					if src.held != nil || pkt.h != nil {
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
				pkt := src.held.pkt
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

// TestClaimMovesALentRegion is the host's read loan (MR.Lend): a claim
// that does not overlap the lent window writes the region where it is; one
// that does — the host's, or an inbound WRITE landing — first moves the
// region to a fresh array, carrying over every byte outside the claim
// (the tail nothing ever wrote stays zero), so the window keeps the bytes
// it was lent with. A packet holding a range of the region outside the
// claim reads it from the fresh array and still delivers its posted
// bytes, at no copy. Once the loan has ended, claims move nothing.
func TestClaimMovesALentRegion(t *testing.T) {
	const n = 64
	orig := bytes.Repeat([]byte("0123456789abcdef"), n/16)
	for _, claimer := range []string{"host", "inbound WRITE"} {
		t.Run(claimer, func(t *testing.T) {
			env := sim.NewEnv(1)
			a, b := testPair(env)
			mr := a.pd.RegisterMRNoCost(n + 32) // a tail nothing writes
			copy(mr.Claim(0, n), orig)
			// A SEND of [48, 64) in flight: its packet holds that range.
			dst := b.pd.RegisterMRNoCost(16)
			b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: dst, Len: 16}})
			env.Spawn("poster", func(p *sim.Proc) {
				a.qp.PostSend(p, &SendWR{WRID: 7, Op: OpSend, SGE: SGE{MR: mr, Off: 48, Len: 16}})
			})
			for mr.held == nil {
				env.RunUntil(env.Now() + 10)
			}
			mr.Bytes() // the region's whole memory, so that reading it whole moves nothing
			w, lentArr := mr.Lend(8, 16), mr.Bytes()
			copy(mr.Claim(24, 8), "XXXXXXXX") // beside the window
			if &mr.Bytes()[0] != &lentArr[0] || a.dev.vm.moves.Value() != 0 {
				t.Fatal("a claim beside the lent window moved the region")
			}
			want := append(append([]byte(nil), orig[:24]...), "XXXXXXXX"...)
			want = append(want, orig[32:]...)
			want = append(want, make([]byte, 32)...)
			switch claimer {
			case "host":
				copy(mr.Claim(0, 12), "YYYYYYYYYYYY")
				copy(want, "YYYYYYYYYYYY")
			case "inbound WRITE":
				src := b.pd.RegisterMRNoCost(12)
				copy(src.Claim(0, 12), "ZZZZZZZZZZZZ")
				env.Spawn("writer", func(p *sim.Proc) {
					b.qp.PostSend(p, &SendWR{WRID: 8, Op: OpWrite, SGE: SGE{MR: src, Len: 12}, Remote: mr.RKey(), RemoteOff: 4})
				})
				for i := 0; mr.Bytes()[4] != 'Z'; i++ {
					if i == 100_000 {
						t.Fatal("the WRITE never landed")
					}
					env.RunUntil(env.Now() + 10)
				}
				copy(want[4:], "ZZZZZZZZZZZZ")
			}
			if &mr.Bytes()[0] == &lentArr[0] || a.dev.vm.moves.Value() != 1 {
				t.Fatal("a claim over the lent window did not move the region")
			}
			if !bytes.Equal(w, orig[8:24]) {
				t.Errorf("the lent window reads %q after the move, want %q", w, orig[8:24])
			}
			if !bytes.Equal(mr.Bytes(), want) {
				t.Errorf("the moved region holds %q, want %q", mr.Bytes(), want)
			}
			env.Run()
			if !bytes.Equal(dst.Bytes(), orig[48:]) || a.dev.vm.copies.Value() != 0 {
				t.Errorf("the SEND in flight delivered %q at %d copies, want %q at none", dst.Bytes(), a.dev.vm.copies.Value(), orig[48:])
			}
			mr.EndLend()
			copy(mr.Claim(0, n), orig)
			if a.dev.vm.moves.Value() != 1 {
				t.Error("a claim after the loan's end moved the region")
			}
		})
	}
}

// BenchmarkLandDirect is echo_bulk's delivery without the engine: one
// 128 KB WRITE_WITH_IMM lands in the peer's region, whose host polls the
// completion and reads the payload under a loan (Lend, EndLend).
func BenchmarkLandDirect(b *testing.B) {
	const n = 128 << 10
	env := sim.NewEnv(1)
	x, y := testPair(env)
	src, dst := x.pd.RegisterMRNoCost(n), y.pd.RegisterMRNoCost(n)
	copy(src.Claim(0, n), bytes.Repeat([]byte("payload!"), n/8))
	wr := &SendWR{Op: OpWriteImm, SGE: SGE{MR: src, Len: n}, Remote: dst.RKey(), Unsignaled: true}
	env.Spawn("lander", func(p *sim.Proc) {
		defer env.Stop()
		round := func() {
			y.qp.PostRecv(RecvWR{SGE: SGE{MR: dst}})
			x.qp.PostSend(p, wr)
			wc := y.cq.PollBusy(p)
			if w := dst.Lend(0, wc.ByteLen); len(w) != n || w[n-1] != '!' {
				b.Fatalf("lent %d bytes ending %q", len(w), w[len(w)-1])
			}
			dst.EndLend()
		}
		round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	env.Run()
}
