package verbs

import (
	"bytes"
	"errors"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// openObserved opens a device with a registry of its own attached: a
// device counts nothing a test could read without one.
func openObserved(node *simnet.Node, cm *CostModel) *Device {
	d := OpenDevice(node, cm)
	d.SetObs(obs.NewRegistry())
	return d
}

// testPair builds a two-node cluster with connected QPs and returns both
// sides' resources.
type side struct {
	dev *Device
	pd  *PD
	cq  *CQ
	qp  *QP
}

func testPair(env *sim.Env) (a, b side) {
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cm := DefaultCostModel()
	da := openObserved(cl.Node(0), cm)
	db := openObserved(cl.Node(1), cm)
	a = side{dev: da, pd: da.AllocPD()}
	b = side{dev: db, pd: db.AllocPD()}
	a.cq = da.CreateCQ()
	b.cq = db.CreateCQ()
	a.qp = da.CreateQP(a.cq, a.cq)
	b.qp = db.CreateQP(b.cq, b.cq)
	a.qp.Connect(b.qp)
	b.qp.Connect(a.qp)
	return a, b
}

func TestSendRecvDeliversPayload(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	msg := []byte("hello over simulated RDMA")
	var got []byte
	env.Spawn("server", func(p *sim.Proc) {
		rmr := b.pd.RegisterMRNoCost(4096)
		b.qp.PostRecv(RecvWR{WRID: 9, SGE: SGE{MR: rmr, Off: 0, Len: 4096}})
		wc := b.cq.PollBusy(p)
		if wc.WRID != 9 || wc.Op != OpRecv {
			t.Errorf("wc = %+v, want RECV wrid 9", wc)
		}
		got = append([]byte(nil), rmr.Bytes()[:wc.ByteLen]...)
	})
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(4096)
		copy(smr.Claim(0, len(msg)), msg)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: len(msg)}})
		wc := a.cq.PollBusy(p)
		if wc.WRID != 1 {
			t.Errorf("send completion wrid = %d, want 1", wc.WRID)
		}
	})
	env.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
}

func TestSendBeforeRecvIsBuffered(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	var gotLen int
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(128)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
	})
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(1_000_000) // post receive long after the send arrived
		rmr := b.pd.RegisterMRNoCost(128)
		b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: rmr, Len: 128}})
		wc := b.cq.PollBusy(p)
		gotLen = wc.ByteLen
	})
	env.Run()
	if gotLen != 64 {
		t.Fatalf("late-posted recv got %d bytes, want 64", gotLen)
	}
}

func TestWriteModifiesRemoteMemory(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	rmr := b.pd.RegisterMRNoCost(1024)
	rk := rmr.RKey()
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(1024)
		copy(smr.Claim(0, len("one-sided write payload")), "one-sided write payload")
		a.qp.PostSend(p, &SendWR{
			WRID: 5, Op: OpWrite,
			SGE:    SGE{MR: smr, Len: 23},
			Remote: rk, RemoteOff: 100,
		})
		wc := a.cq.PollBusy(p)
		if wc.Op != OpWrite {
			t.Errorf("completion op = %v, want WRITE", wc.Op)
		}
	})
	env.Run()
	if string(rmr.Bytes()[100:123]) != "one-sided write payload" {
		t.Fatalf("remote memory = %q", rmr.Bytes()[100:123])
	}
}

func TestWriteImmConsumesRecvAndCarriesImm(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	rmr := b.pd.RegisterMRNoCost(4096)
	rk := rmr.RKey()
	var wc WC
	env.Spawn("server", func(p *sim.Proc) {
		dummy := b.pd.RegisterMRNoCost(16)
		b.qp.PostRecv(RecvWR{WRID: 77, SGE: SGE{MR: dummy, Len: 0}})
		wc = b.cq.PollBusy(p)
	})
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(4096)
		copy(smr.Claim(0, len("imm data")), "imm data")
		a.qp.PostSend(p, &SendWR{
			WRID: 6, Op: OpWriteImm,
			SGE:    SGE{MR: smr, Len: 8},
			Remote: rk, RemoteOff: 0, Imm: 0xBEEF,
		})
	})
	env.Run()
	if !wc.HasImm || wc.Imm != 0xBEEF {
		t.Fatalf("wc = %+v, want imm 0xBEEF", wc)
	}
	if wc.WRID != 77 {
		t.Fatalf("consumed recv wrid = %d, want 77", wc.WRID)
	}
	if string(rmr.Bytes()[:8]) != "imm data" {
		t.Fatalf("remote buf = %q", rmr.Bytes()[:8])
	}
}

func TestReadFetchesRemoteMemory(t *testing.T) {
	env := sim.NewEnv(1)
	a, b := testPair(env)
	rmr := b.pd.RegisterMRNoCost(1024)
	copy(rmr.Claim(200, len("remote secret")), "remote secret")
	rk := rmr.RKey()
	var got string
	env.Spawn("client", func(p *sim.Proc) {
		lmr := a.pd.RegisterMRNoCost(1024)
		a.qp.PostSend(p, &SendWR{
			WRID: 8, Op: OpRead,
			SGE:    SGE{MR: lmr, Off: 0, Len: 13},
			Remote: rk, RemoteOff: 200,
		})
		wc := a.cq.PollBusy(p)
		if wc.Op != OpRead || wc.ByteLen != 13 {
			t.Errorf("wc = %+v, want READ 13 bytes", wc)
		}
		got = string(lmr.Bytes()[:13])
	})
	env.Run()
	if got != "remote secret" {
		t.Fatalf("read %q, want %q", got, "remote secret")
	}
}

func TestChainedWRsUseSingleDoorbell(t *testing.T) {
	// Two WRITEs chained must charge exactly one doorbell: the chained
	// post must be cheaper than two separate posts by ~DoorbellNs.
	run := func(chained bool) sim.Time {
		env := sim.NewEnv(1)
		a, b := testPair(env)
		rmr := b.pd.RegisterMRNoCost(4096)
		rk := rmr.RKey()
		var postDone sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			smr := a.pd.RegisterMRNoCost(4096)
			w2 := &SendWR{WRID: 2, Op: OpWrite, SGE: SGE{MR: smr, Len: 64}, Remote: rk, Unsignaled: true}
			w1 := &SendWR{WRID: 1, Op: OpWrite, SGE: SGE{MR: smr, Len: 64}, Remote: rk, Unsignaled: true}
			if chained {
				w1.Next = w2
				a.qp.PostSend(p, w1)
			} else {
				a.qp.PostSend(p, w1)
				a.qp.PostSend(p, w2)
			}
			postDone = p.Now()
		})
		env.Run()
		return postDone
	}
	sep := run(false)
	chain := run(true)
	cm := DefaultCostModel()
	saving := int64(sep - chain)
	if saving < cm.DoorbellNs-20 || saving > cm.DoorbellNs+20 {
		t.Fatalf("chaining saved %dns, want ~%dns (one doorbell)", saving, cm.DoorbellNs)
	}
}

func TestBusyPollBeatsEventPollLatency(t *testing.T) {
	run := func(busy bool) sim.Time {
		env := sim.NewEnv(1)
		a, b := testPair(env)
		var done sim.Time
		env.Spawn("server", func(p *sim.Proc) {
			rmr := b.pd.RegisterMRNoCost(256)
			b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: rmr, Len: 256}})
			b.cq.Poll(p, busy)
			done = p.Now()
		})
		env.Spawn("client", func(p *sim.Proc) {
			smr := a.pd.RegisterMRNoCost(256)
			a.qp.PostSend(p, &SendWR{WRID: 2, Op: OpSend, SGE: SGE{MR: smr, Len: 64}, Unsignaled: true})
		})
		env.Run()
		return done
	}
	busy, event := run(true), run(false)
	if busy >= event {
		t.Fatalf("busy poll (%d) not faster than event poll (%d)", busy, event)
	}
	cm := DefaultCostModel()
	if int64(event-busy) < cm.InterruptWakeNs/2 {
		t.Fatalf("event poll penalty only %dns, want >= %dns", event-busy, cm.InterruptWakeNs/2)
	}
}

func TestInlineSendSkipsDMA(t *testing.T) {
	// An inline send of a small payload should complete sooner than a
	// non-inline one (no DMA read of the payload).
	run := func(inline bool) sim.Time {
		env := sim.NewEnv(1)
		a, _ := testPair(env)
		var done sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			smr := a.pd.RegisterMRNoCost(4096)
			a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 4000}, Inline: inline})
			a.cq.PollBusy(p)
			done = p.Now()
		})
		env.Run()
		return done
	}
	if run(true) >= run(false) {
		t.Fatal("inline send not cheaper than DMA send")
	}
}

func TestLargeTransferBandwidthBound(t *testing.T) {
	// A 1 MB WRITE at 100 Gbps should take at least the serialization
	// time: 1 MB / 12.5 GB/s = 80 µs (and the DMA adds more).
	env := sim.NewEnv(1)
	a, b := testPair(env)
	rmr := b.pd.RegisterMRNoCost(1 << 20)
	rk := rmr.RKey()
	var done sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(1 << 20)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpWrite, SGE: SGE{MR: smr, Len: 1 << 20}, Remote: rk})
		a.cq.PollBusy(p)
		done = p.Now()
	})
	env.Run()
	if done < 80_000 {
		t.Fatalf("1MB write completed in %dns, faster than line rate", done)
	}
	if done > 400_000 {
		t.Fatalf("1MB write took %dns, unreasonably slow", done)
	}
}

func TestRegisterMRChargesTime(t *testing.T) {
	env := sim.NewEnv(1)
	a, _ := testPair(env)
	var elapsed sim.Time
	env.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		mr := a.pd.RegisterMR(p, 1<<20)
		elapsed = p.Now() - start
		if mr.Len() != 1<<20 {
			t.Errorf("MR len = %d", mr.Len())
		}
	})
	env.Run()
	cm := DefaultCostModel()
	want := cm.RegisterTime(1 << 20)
	if int64(elapsed) != want {
		t.Fatalf("registration took %dns, want %dns", elapsed, want)
	}
}

func TestQPOrderingFIFO(t *testing.T) {
	// Messages posted on one QP must arrive in order.
	env := sim.NewEnv(1)
	a, b := testPair(env)
	var order []uint32
	env.Spawn("server", func(p *sim.Proc) {
		rmr := b.pd.RegisterMRNoCost(65536)
		for i := 0; i < 8; i++ {
			b.qp.PostRecv(RecvWR{WRID: uint64(i), SGE: SGE{MR: rmr, Off: i * 8192, Len: 8192}})
		}
		for i := 0; i < 8; i++ {
			wc := b.cq.PollBusy(p)
			order = append(order, uint32(wc.WRID))
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(65536)
		for i := 0; i < 8; i++ {
			a.qp.PostSend(p, &SendWR{WRID: uint64(i), Op: OpSend, SGE: SGE{MR: smr, Len: 100 * (i + 1)}, Unsignaled: true})
		}
	})
	env.Run()
	if len(order) != 8 {
		t.Fatalf("received %d messages, want 8", len(order))
	}
	for i, w := range order {
		if w != uint32(i) {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestOutboundReadCostlierThanInboundServe(t *testing.T) {
	// RFP's observation: a node issuing N READs spends more NIC time than
	// a node serving N inbound READs. Compare TX busy time.
	env := sim.NewEnv(1)
	a, b := testPair(env)
	rmr := b.pd.RegisterMRNoCost(64 * 1024)
	rk := rmr.RKey()
	env.Spawn("client", func(p *sim.Proc) {
		lmr := a.pd.RegisterMRNoCost(64 * 1024)
		for i := 0; i < 32; i++ {
			a.qp.PostSend(p, &SendWR{WRID: uint64(i), Op: OpRead, SGE: SGE{MR: lmr, Len: 512}, Remote: rk})
			a.cq.PollBusy(p)
		}
	})
	env.Run()
	_ = b
	// The initiator's engine charged OutboundOneSidedExtra per READ; this
	// is observable as a latency floor per op.
	cm := DefaultCostModel()
	if cm.OutboundOneSidedExtraNs <= cm.InboundServeNs {
		t.Fatal("cost model must make outbound one-sided dearer than inbound")
	}
}

func TestOpcodeString(t *testing.T) {
	cases := map[Opcode]string{
		OpSend: "SEND", OpWrite: "WRITE", OpWriteImm: "WRITE_WITH_IMM",
		OpRead: "READ", OpRecv: "RECV", OpSendImm: "SEND_WITH_IMM",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if Opcode(99).String() != "Opcode(99)" {
		t.Errorf("unknown opcode string = %q", Opcode(99).String())
	}
}

// TestConnectLiveQPRefused: re-targeting a connected, healthy QP is a
// typed error; re-connecting to the same peer is an idempotent no-op;
// an errored QP (or one whose peer died) may be re-pointed.
func TestConnectLiveQPRefused(t *testing.T) {
	env := sim.NewEnv(37)
	cl, a, b := crashPair(env)
	intruder := a.dev.CreateQP(a.cq, a.cq)
	if err := b.qp.Connect(intruder); !errors.Is(err, ErrQPConnected) {
		t.Fatalf("re-target of live QP: err = %v, want ErrQPConnected", err)
	}
	if b.qp.Peer() != a.qp {
		t.Fatal("refused Connect must leave the old pairing intact")
	}
	if err := b.qp.Connect(a.qp); err != nil {
		t.Fatalf("idempotent re-connect to same peer: %v", err)
	}
	// After the peer's node crashes, re-pointing is legitimate.
	env.At(100, cl.Node(0).Crash)
	env.Spawn("watch", func(p *sim.Proc) { p.Sleep(1000) })
	env.Run()
	if err := b.qp.Connect(intruder); err != nil {
		t.Fatalf("re-connect after peer crash: %v", err)
	}
}
