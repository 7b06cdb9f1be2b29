package verbs

import (
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// writeStamp posts an unsignaled one-byte WRITE of value v to offset off
// of the target region.
func writeStamp(p *sim.Proc, a side, src *MR, dst RKey, off int, v byte) {
	src.Claim(0, 1)[0] = v
	a.qp.PostSend(p, &SendWR{Op: OpWrite, SGE: SGE{MR: src, Len: 1}, Remote: dst, RemoteOff: off, Unsignaled: true})
}

// TestPSNGapDiscardsEverythingBehindALoss: once the fabric loses one packet
// of a QP, nothing that QP sends afterwards is delivered — not the WRITEs
// already queued behind the lost one, not WRITEs posted during the retry
// window, not a WRITE_WITH_IMM — until the QP has errored and been
// recovered. Every request behind the gap completes in error, signaled or
// not, and a request still queued when the QP recovers is flushed, not sent.
func TestPSNGapDiscardsEverythingBehindALoss(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	cl := a.dev.Node().Cluster()
	dst := b.pd.RegisterMRNoCost(16)
	src := a.pd.RegisterMRNoCost(16)
	var landed []int
	dst.SetWriteNotify(func(off, n int) { landed = append(landed, off) })
	b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: dst, Len: 0}})
	env.Spawn("client", func(p *sim.Proc) {
		cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: 0, To: 1, N: 2}}})
		// One chain: the second of four WRITEs is lost; the IMM behind
		// them must not announce a message with a hole in it.
		wrs := make([]SendWR, 5)
		for i := range wrs {
			wrs[i] = SendWR{Op: OpWrite, SGE: SGE{MR: src, Len: 1}, Remote: dst.RKey(), RemoteOff: i, Unsignaled: true}
			if i > 0 {
				wrs[i-1].Next = &wrs[i]
			}
		}
		wrs[4].Op, wrs[4].Imm = OpWriteImm, 7
		a.qp.PostSend(p, &wrs[0])
		p.Sleep(5_000)
		if a.qp.Errored() {
			t.Fatal("QP errored before its retry window ran out")
		}
		// Inside the retry window: still behind the gap. The signaled one
		// must complete — in error.
		writeStamp(p, a, src, dst.RKey(), 8, 1)
		a.qp.PostSend(p, &SendWR{WRID: 42, Op: OpWrite, SGE: SGE{MR: src, Len: 1}, Remote: dst.RKey(), RemoteOff: 9})
		// Errors are never silent: the lost WRITE, the three of its chain
		// behind it and the stamp complete in error although unsignaled,
		// in posting order, ahead of the signaled one.
		for i := 0; i < 6; i++ {
			wc := a.cq.PollBusy(p)
			if want := uint64(42 * (i / 5)); wc.WRID != want || wc.Status != WCRetryExceeded {
				t.Errorf("completion %d behind the gap is %+v, want WRID %d RETRY_EXC", i, wc, want)
			}
		}
		if !a.qp.Errored() {
			t.Fatal("QP not errored after the retry window")
		}
		a.qp.Recover(p)
		writeStamp(p, a, src, dst.RKey(), 10, 1)
		p.Sleep(50_000)
		env.Stop()
	})
	env.Run()
	if len(landed) != 2 || landed[0] != 0 || landed[1] != 10 {
		t.Fatalf("WRITEs landed at offsets %v, want [0 10] (the one before the loss, the one after recovery)", landed)
	}
	if b.cq.Depth() != 0 {
		t.Fatalf("%d completions at the responder: the WRITE_WITH_IMM behind the gap was delivered", b.cq.Depth())
	}
}

// TestRecoverFlushesQueuedWork: work requests posted before a recovery
// and not yet fetched by the NIC are flushed by it.
func TestRecoverFlushesQueuedWork(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	dst := b.pd.RegisterMRNoCost(1 << 20)
	src := a.pd.RegisterMRNoCost(1 << 20)
	landed := 0
	dst.SetWriteNotify(func(off, n int) { landed++ })
	env.Spawn("client", func(p *sim.Proc) {
		// Queue a long WRITE (it occupies the NIC) and one behind it, then
		// error the QP (as a lost packet's retry timer would) and recover
		// it while the second still waits in the queue.
		a.qp.PostSend(p, &SendWR{Op: OpWrite, SGE: SGE{MR: src, Len: 1 << 20}, Remote: dst.RKey(), Unsignaled: true})
		a.qp.PostSend(p, &SendWR{WRID: 5, Op: OpWrite, SGE: SGE{MR: src, Len: 8}, Remote: dst.RKey()})
		a.qp.errored = true
		a.qp.Recover(p)
		wc := a.cq.PollBusy(p)
		if wc.WRID != 5 || wc.Status != WCFlushed {
			t.Errorf("queued WRITE completed %+v across a recovery, want FLUSH_ERR", wc)
		}
		p.Sleep(500_000)
		env.Stop()
	})
	env.Run()
	if landed > 1 {
		t.Fatalf("%d WRITEs landed, want at most the one the NIC had already fetched", landed)
	}
}

// TestJitterKeepsQPOrder: a jittered fabric may delay a QP's packets but
// never reorders them.
func TestJitterKeepsQPOrder(t *testing.T) {
	env := sim.NewEnv(3)
	a, b := testPair(env)
	a.dev.Node().Cluster().InstallFaults(simnet.FaultConfig{JitterNs: 50_000})
	dst := b.pd.RegisterMRNoCost(256)
	src := a.pd.RegisterMRNoCost(16)
	var order []int
	dst.SetWriteNotify(func(off, n int) { order = append(order, off) })
	env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			writeStamp(p, a, src, dst.RKey(), i, byte(i))
		}
		p.Sleep(1_000_000)
		env.Stop()
	})
	env.Run()
	if len(order) != 64 {
		t.Fatalf("%d of 64 WRITEs landed", len(order))
	}
	for i, off := range order {
		if off != i {
			t.Fatalf("WRITE %d landed in position %d: %v", off, i, order)
		}
	}
}

// TestWriteRoundAllocatesNothing is the per-WR cost gate: once the packet
// and snapshot free lists are warm, posting a WRITE and landing it at the
// responder allocates nothing — and neither does a signaled WRITE's
// completion, pushed onto the CQ and polled off it again.
func TestWriteRoundAllocatesNothing(t *testing.T) {
	for _, signaled := range []bool{false, true} {
		name := "unsignaled"
		if signaled {
			name = "signaled"
		}
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			a, b := testPair(env)
			dst := b.pd.RegisterMRNoCost(1 << 16)
			src := a.pd.RegisterMRNoCost(1 << 16)
			wr := &SendWR{Op: OpWrite, SGE: SGE{MR: src, Len: 8 << 10}, Remote: dst.RKey(), Unsignaled: !signaled}
			var allocs float64
			env.Spawn("client", func(p *sim.Proc) {
				round := func() {
					a.qp.PostSend(p, wr)
					if signaled {
						if wc := a.cq.PollBusy(p); wc.Status != WCSuccess {
							t.Errorf("completion %+v", wc)
						}
					}
					p.Sleep(10_000) // fetched, sent, landed, recycled
				}
				for i := 0; i < 4; i++ {
					round()
				}
				allocs = testing.AllocsPerRun(100, round)
				env.Stop()
			})
			env.Run()
			if allocs != 0 {
				t.Fatalf("%v allocations per warmed PostSend→receive round of a WRITE, want 0", allocs)
			}
		})
	}
}

// TestSnapshotColdMissIsExact: a size the arena has not seen is served
// by a buffer of exactly that size — never rounded up to its recycling
// class — and the buffer serves the same size again.
func TestSnapshotColdMissIsExact(t *testing.T) {
	env := sim.NewEnv(1)
	a, _ := testPair(env)
	first := a.dev.Get(540)
	if cap(first) != 540 {
		t.Fatalf("cold 540-byte Get has capacity %d", cap(first))
	}
	a.dev.Put(first)
	if again := a.dev.Get(540); &again[0] != &first[0] {
		t.Fatal("a recycled buffer did not serve the same size again")
	}
}
