package verbs

import (
	"errors"
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// srqFixture builds a two-node cluster with n client QPs on node 0, each
// connected to its own server QP on node 1, where every server QP drains
// receives from one shared SRQ.
type srqFixture struct {
	cl      *simnet.Cluster
	da, db  *Device
	pda     *PD
	pdb     *PD
	srq     *SRQ
	cli     []*QP
	srv     []*QP
	cliCQ   []*CQ
	srvCQ   []*CQ
	recvMR  *MR
	slotLen int
}

func newSRQFixture(env *sim.Env, n int) *srqFixture {
	f := &srqFixture{slotLen: 1024}
	f.cl = simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cm := DefaultCostModel()
	f.da = openObserved(f.cl.Node(0), cm)
	f.db = openObserved(f.cl.Node(1), cm)
	f.pda, f.pdb = f.da.AllocPD(), f.db.AllocPD()
	f.srq = f.db.CreateSRQ()
	f.recvMR = f.pdb.RegisterMRNoCost(n * 8 * f.slotLen)
	for i := 0; i < n; i++ {
		ccq, scq := f.da.CreateCQ(), f.db.CreateCQ()
		cqp := f.da.CreateQP(ccq, ccq)
		sqp := f.db.CreateQPSRQ(scq, scq, f.srq)
		if err := cqp.Connect(sqp); err != nil {
			panic(err)
		}
		if err := sqp.Connect(cqp); err != nil {
			panic(err)
		}
		f.cli, f.srv = append(f.cli, cqp), append(f.srv, sqp)
		f.cliCQ, f.srvCQ = append(f.cliCQ, ccq), append(f.srvCQ, scq)
	}
	return f
}

// postSlots replenishes the shared ring with count WQEs carved from the
// fixture MR; wrids start at base.
func (f *srqFixture) postSlots(base uint64, count int) {
	for i := 0; i < count; i++ {
		off := (int(base) + i) * f.slotLen % len(f.recvMR.Buf)
		f.srq.PostRecv(RecvWR{WRID: base + uint64(i), SGE: SGE{MR: f.recvMR, Off: off, Len: f.slotLen}})
	}
}

// TestSRQFanInDelivery: sends from three clients all drain the one
// shared ring, each completing on its own QP's receive CQ, and the
// shared depth accounts for every consumed slot.
func TestSRQFanInDelivery(t *testing.T) {
	env := sim.NewEnv(31)
	f := newSRQFixture(env, 3)
	f.postSlots(0, 6)
	if f.srq.Depth() != 6 || f.srq.QPs() != 3 {
		t.Fatalf("depth=%d qps=%d, want 6/3", f.srq.Depth(), f.srq.QPs())
	}
	for i := range f.cli {
		i := i
		env.Spawn("client", func(p *sim.Proc) {
			smr := f.pda.RegisterMRNoCost(256)
			smr.Buf[0] = byte('a' + i)
			f.cli[i].PostSend(p, &SendWR{WRID: uint64(100 + i), Op: OpSend, SGE: SGE{MR: smr, Len: 64}, Unsignaled: true})
		})
	}
	got := make([]WC, 3)
	for i := range f.srv {
		i := i
		env.Spawn("server", func(p *sim.Proc) {
			got[i] = f.srvCQ[i].PollBusy(p)
		})
	}
	env.Run()
	for i, wc := range got {
		if wc.Op != OpRecv || wc.Status != WCSuccess {
			t.Fatalf("srv %d: wc = %+v, want successful RECV", i, wc)
		}
		if wc.QP != f.srv[i] {
			t.Errorf("srv %d: completion on wrong QP", i)
		}
	}
	if f.srq.Depth() != 3 {
		t.Fatalf("shared depth after 3 sends = %d, want 3", f.srq.Depth())
	}
	// Ring accounting: remaining posted + unpolled recv completions must
	// equal the posted total (all completions were polled above).
	unpolled := 0
	for _, cq := range f.srvCQ {
		unpolled += cq.QueuedRecvs()
	}
	if f.srq.Depth()+unpolled != 3 {
		t.Fatalf("ring leak: depth %d + unpolled %d != 3", f.srq.Depth(), unpolled)
	}
}

// TestSRQPendingMatchAttachOrder: with RNR disabled, packets that beat
// the buffers queue per-QP; replenishing the SRQ matches them in attach
// order, deterministically.
func TestSRQPendingMatchAttachOrder(t *testing.T) {
	env := sim.NewEnv(32)
	f := newSRQFixture(env, 2)
	env.Spawn("clients", func(p *sim.Proc) {
		smr := f.pda.RegisterMRNoCost(256)
		// Second-attached QP's packet is sent first.
		f.cli[1].PostSend(p, &SendWR{WRID: 11, Op: OpSend, SGE: SGE{MR: smr, Len: 32}, Unsignaled: true})
		f.cli[0].PostSend(p, &SendWR{WRID: 10, Op: OpSend, SGE: SGE{MR: smr, Len: 32}, Unsignaled: true})
	})
	var first, second WC
	var jumped bool
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(1_000_000) // both packets are pending before any buffer exists
		// One buffer: it must match the first-attached QP's pending packet
		// even though the second-attached QP's packet arrived first.
		f.postSlots(0, 1)
		first = f.srvCQ[0].PollBusy(p)
		if _, ok := f.srvCQ[1].TryPoll(); ok {
			jumped = true
		}
		f.postSlots(1, 1)
		second = f.srvCQ[1].PollBusy(p)
	})
	env.Run()
	if first.Op != OpRecv || first.Status != WCSuccess {
		t.Fatalf("first buffer: wc = %+v, want RECV on first-attached QP", first)
	}
	if jumped {
		t.Fatal("second-attached QP matched before the first (arrival order, want attach order)")
	}
	if second.Op != OpRecv || second.Status != WCSuccess {
		t.Fatalf("second buffer: wc = %+v, want RECV on second-attached QP", second)
	}
}

// TestSRQRNRNakRecovers: an armed SRQ NAKs a send that finds the shared
// ring empty; replenishing within the retry budget delivers it.
func TestSRQRNRNakRecovers(t *testing.T) {
	env := sim.NewEnv(33)
	f := newSRQFixture(env, 1)
	f.srq.SetRNR(8)
	var wc WC
	env.Spawn("client", func(p *sim.Proc) {
		smr := f.pda.RegisterMRNoCost(256)
		f.cli[0].PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: 64}, Unsignaled: true})
	})
	env.Spawn("server", func(p *sim.Proc) {
		p.Sleep(50_000) // a few RNR timer rounds
		f.postSlots(0, 1)
		wc = f.srvCQ[0].PollBusy(p)
	})
	env.Run()
	if wc.Op != OpRecv || wc.Status != WCSuccess {
		t.Fatalf("wc = %+v, want delivered RECV after RNR backoff", wc)
	}
	if f.db.vm.rnrNaks.Value() == 0 {
		t.Fatal("no RNR NAKs counted on the shared ring")
	}
}

// TestSRQRNRExhaustionErrorsSender: when the shared ring stays empty for
// the whole rnr_retry budget the sender's WR fails typed and its QP
// errors — same contract as the per-QP ring.
func TestSRQRNRExhaustionErrorsSender(t *testing.T) {
	env := sim.NewEnv(34)
	f := newSRQFixture(env, 2)
	f.srq.SetRNR(3)
	var wc WC
	env.Spawn("client", func(p *sim.Proc) {
		smr := f.pda.RegisterMRNoCost(256)
		f.cli[1].PostSend(p, &SendWR{WRID: 9, Op: OpSend, SGE: SGE{MR: smr, Len: 64}, Unsignaled: true})
		wc = f.cliCQ[1].PollBusy(p) // error CQE raised even though unsignaled
	})
	env.Run()
	if wc.WRID != 9 || wc.Status != WCRNRRetryExceeded {
		t.Fatalf("wc = %+v, want wrid 9 WCRNRRetryExceeded", wc)
	}
	if !f.cli[1].Errored() {
		t.Fatal("sender QP should be errored after RNR exhaustion")
	}
	if f.cli[0].Errored() {
		t.Fatal("sibling QP sharing the SRQ must be unaffected")
	}
}

// TestSRQPostRecvOnAttachedQPPanics: the private-ring entry point is
// invalid once a QP drains an SRQ.
func TestSRQPostRecvOnAttachedQPPanics(t *testing.T) {
	env := sim.NewEnv(35)
	f := newSRQFixture(env, 1)
	env.Spawn("noop", func(p *sim.Proc) {})
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("PostRecv on an SRQ-attached QP should panic")
		}
	}()
	f.srv[0].PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: f.recvMR, Len: 64}})
}

// TestSRQCrashClearsSharedRing: a device crash drops the shared ring
// with the rest of the NIC's protection state.
func TestSRQCrashClearsSharedRing(t *testing.T) {
	env := sim.NewEnv(36)
	f := newSRQFixture(env, 2)
	f.postSlots(0, 4)
	env.At(100, f.cl.Node(1).Crash)
	env.Spawn("watch", func(p *sim.Proc) { p.Sleep(1000) })
	env.Run()
	if f.srq.Depth() != 0 {
		t.Fatalf("shared ring depth after crash = %d, want 0", f.srq.Depth())
	}
	if !f.srv[0].Errored() || !f.srv[1].Errored() {
		t.Fatal("SRQ-attached QPs should be errored after crash")
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
