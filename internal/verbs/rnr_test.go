package verbs

import (
	"fmt"
	"testing"

	"hatrpc/internal/sim"
)

// TestRNRNakDelaysUntilRecvPosted: with finite RECV depth armed, a SEND
// arriving before any RECV is posted draws RNR NAKs and is retried on
// the RNR timer until a RECV appears — delivery succeeds, later, and the
// NAKs are counted.
func TestRNRNakDelaysUntilRecvPosted(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	b.qp.SetRNR(6)
	var deliveredAt sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(128)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
	})
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(30_000) // one RNR timer period after the send arrives
		rmr := b.pd.RegisterMRNoCost(128)
		b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: rmr, Len: 128}})
		wc := b.cq.PollBusy(p)
		if wc.WRID != 2 || wc.Status != WCSuccess || wc.ByteLen != 64 {
			t.Errorf("wc = %+v, want successful 64-byte RECV on wrid 2", wc)
		}
		deliveredAt = p.Now()
	})
	env.Run()
	if b.dev.vm.rnrNaks.Value() == 0 {
		t.Error("no RNR NAKs counted for a SEND into an empty armed ring")
	}
	if deliveredAt == 0 {
		t.Error("message never delivered")
	}
	// The delivery had to wait for at least one full RNR timer period.
	if deliveredAt < sim.Time(DefaultCostModel().RnrTimerNs) {
		t.Errorf("delivered at t=%d, before one RNR timer period", deliveredAt)
	}
}

// TestRNRRetryExceededFailsSender: a receiver that never posts a RECV
// exhausts the sender's rnr_retry budget. The sender must observe a
// WCRNRRetryExceeded completion — even for an unsignaled WR, errors are
// never silent — and its QP enters the error state.
func TestRNRRetryExceededFailsSender(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	const retries = 3
	b.qp.SetRNR(retries)
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(128)
		a.qp.PostSend(p, &SendWR{WRID: 7, Op: OpSend, SGE: SGE{MR: smr, Len: 64}, Unsignaled: true})
		wc := a.cq.PollBusy(p)
		if wc.WRID != 7 || wc.Status != WCRNRRetryExceeded {
			t.Errorf("wc = %+v, want WCRNRRetryExceeded on wrid 7", wc)
		}
		if !a.qp.Errored() {
			t.Error("sender QP not errored after RNR retry exhaustion")
		}
	})
	env.Run()
	// Initial attempt + `retries` retransmissions all drew NAKs.
	if got := b.dev.vm.rnrNaks.Value(); got != retries+1 {
		t.Errorf("RnrNaks = %d, want %d", got, retries+1)
	}
}

// TestRNRDisabledKeepsLegacyBuffering: without SetRNR the legacy
// behaviour holds — a SEND with no posted RECV parks until one appears,
// no NAKs, no errors.
func TestRNRDisabledKeepsLegacyBuffering(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(128)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
	})
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(1_000_000)
		rmr := b.pd.RegisterMRNoCost(128)
		b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: rmr, Len: 128}})
		wc := b.cq.PollBusy(p)
		if wc.Status != WCSuccess || wc.ByteLen != 64 {
			t.Errorf("wc = %+v, want buffered delivery", wc)
		}
	})
	env.Run()
	if got := b.dev.vm.rnrNaks.Value(); got != 0 {
		t.Errorf("RnrNaks = %d on an unarmed QP, want 0", got)
	}
	if a.qp.Errored() {
		t.Error("sender QP errored without RNR arming")
	}
}

// TestRecoverIdempotentOnHealthyQP locks in that Recover on a
// non-errored QP is a free no-op: no virtual time is charged and the QP
// stays usable. The engine's circuit-breaker half-open probe calls this
// speculatively on every probe.
func TestRecoverIdempotentOnHealthyQP(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	env.Spawn("client", func(p *sim.Proc) {
		before := p.Now()
		a.qp.Recover(p)
		a.qp.Recover(p)
		if p.Now() != before {
			t.Errorf("Recover on a healthy QP charged %d ns, want 0", p.Now()-before)
		}
		if a.qp.Errored() {
			t.Error("Recover errored a healthy QP")
		}
		// The QP still works end to end.
		smr := a.pd.RegisterMRNoCost(128)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 32}})
	})
	env.Spawn("server", func(p *sim.Proc) {
		rmr := b.pd.RegisterMRNoCost(128)
		b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: rmr, Len: 128}})
		wc := b.cq.PollBusy(p)
		if wc.Status != WCSuccess || wc.ByteLen != 32 {
			t.Errorf("post-Recover delivery failed: %+v", wc)
		}
	})
	env.Run()
}

// TestRNRWriteImmAlsoNaks: WRITE_WITH_IMM consumes a RECV for its
// immediate, so it is subject to RNR NAKs on an armed QP too.
func TestRNRWriteImmAlsoNaks(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	b.qp.SetRNR(2)
	rmr := b.pd.RegisterMRNoCost(4096)
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(4096)
		copy(smr.Claim(0, len("imm payload")), "imm payload")
		a.qp.PostSend(p, &SendWR{
			WRID: 3, Op: OpWriteImm,
			SGE:    SGE{MR: smr, Len: 11},
			Remote: rmr.RKey(), Imm: 42,
		})
	})
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(25_000)
		b.qp.PostRecv(RecvWR{WRID: 4, SGE: SGE{MR: rmr, Len: 0}})
		wc := b.cq.PollBusy(p)
		if wc.Status != WCSuccess || !wc.HasImm || wc.Imm != 42 {
			t.Errorf("wc = %+v, want imm 42 delivered after RNR backoff", wc)
		}
		if string(rmr.Bytes()[:11]) != "imm payload" {
			t.Errorf("payload = %q", rmr.Bytes()[:11])
		}
	})
	env.Run()
	if b.dev.vm.rnrNaks.Value() == 0 {
		t.Error("no RNR NAKs for WRITE_IMM into an empty armed ring")
	}
}

// TestRecvQueueSteadyStateAllocsNothing: both receive-side queues reuse
// their storage. Once warm, a round of SENDs into a ring of posted RECVs,
// each completion polled and its slot reposted as the engine's eager ring
// does, allocates nothing — on a shallow and a deep ring, and on a QP with
// finite RECV depth as well as one without. Without it the round sends two
// rings' worth, so half of it arrives to an empty receive queue and waits
// in the pending queue until the repost it is matched against.
func TestRecvQueueSteadyStateAllocsNothing(t *testing.T) {
	for _, depth := range []int{2, 16} {
		for _, rnr := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth=%d/rnr=%v", depth, rnr), func(t *testing.T) {
				env := sim.NewEnv(1)
				a, b := testPair(env)
				sends := 2 * depth
				if rnr {
					b.qp.SetRNR(6)
					sends = depth
				}
				const slot = 64
				ring := b.pd.RegisterMRNoCost(depth * slot)
				repost := func(i uint64) {
					b.qp.PostRecv(RecvWR{WRID: i, SGE: SGE{MR: ring, Off: int(i) * slot, Len: slot}})
				}
				for i := 0; i < depth; i++ {
					repost(uint64(i))
				}
				wr := &SendWR{Op: OpSend, SGE: SGE{MR: a.pd.RegisterMRNoCost(slot), Len: slot / 2}, Unsignaled: true}
				var allocs float64
				env.Spawn("client", func(p *sim.Proc) {
					round := func() {
						for i := 0; i < sends; i++ {
							a.qp.PostSend(p, wr)
						}
						p.Sleep(50_000) // all landed: a ring's worth completed, the rest pending
						if got := b.qp.pending.Len(); got != sends-depth {
							t.Fatalf("%d SENDs pending a RECV, want %d", got, sends-depth)
						}
						for i := 0; i < sends; i++ {
							wc := b.cq.PollBusy(p)
							if wc.Status != WCSuccess || wc.Op != OpRecv {
								t.Fatalf("completion %+v", wc)
							}
							repost(wc.WRID)
						}
						if got := b.qp.RecvDepth(); got != depth {
							t.Fatalf("%d RECVs posted after the round, want the ring's %d", got, depth)
						}
					}
					for i := 0; i < 4; i++ {
						round()
					}
					allocs = testing.AllocsPerRun(100, round)
					env.Stop()
				})
				env.Run()
				if allocs != 0 {
					t.Fatalf("%v allocations per warmed round of %d SENDs into a %d-deep ring, want 0", allocs, sends, depth)
				}
				if naks := b.dev.vm.rnrNaks.Value(); naks != 0 {
					t.Errorf("%d RNR NAKs: the round overran the ring", naks)
				}
			})
		}
	}
}
