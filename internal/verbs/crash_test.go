package verbs

import (
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// crashPair is testPair plus the cluster handle, for tests that crash
// nodes.
func crashPair(env *sim.Env) (cl *simnet.Cluster, a, b side) {
	cl = simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cm := DefaultCostModel()
	da := OpenDevice(cl.Node(0), cm)
	db := OpenDevice(cl.Node(1), cm)
	a = side{dev: da, pd: da.AllocPD()}
	b = side{dev: db, pd: db.AllocPD()}
	a.cq = da.CreateCQ()
	b.cq = db.CreateCQ()
	a.qp = da.CreateQP(a.cq, a.cq)
	b.qp = db.CreateQP(b.cq, b.cq)
	a.qp.Connect(b.qp)
	b.qp.Connect(a.qp)
	return cl, a, b
}

// TestCrashFailsSurvivorSend: a SEND issued while the peer node is down
// draws no ACK; the survivor's RC transport retries until the timeout
// and completes the WR with WCRetryExceeded — never silently.
func TestCrashFailsSurvivorSend(t *testing.T) {
	env := sim.NewEnv(21)
	cl, a, _ := crashPair(env)
	env.At(100, cl.Node(1).Crash)
	var wc WC
	env.Spawn("client", func(p *sim.Proc) {
		p.Sleep(1000) // after the crash
		smr := a.pd.RegisterMRNoCost(256)
		a.qp.PostSend(p, &SendWR{WRID: 7, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
		wc = a.cq.PollBusy(p)
	})
	env.Run()
	if wc.WRID != 7 || wc.Status != WCRetryExceeded {
		t.Errorf("wc = %+v, want wrid 7 WCRetryExceeded", wc)
	}
	if !a.qp.Errored() {
		t.Error("survivor QP should be in the error state")
	}
}

// TestCrashErrsLocalQPs: the crashed node's own device is dead — its
// QPs are errored and a post after reboot-less recovery attempts fails
// the WR immediately (the NIC lost its protection state with the power).
func TestCrashErrsLocalQPs(t *testing.T) {
	env := sim.NewEnv(22)
	cl, _, b := crashPair(env)
	env.At(100, cl.Node(1).Crash)
	env.Spawn("watch", func(p *sim.Proc) { p.Sleep(1000) })
	env.Run()
	if !b.dev.Dead() {
		t.Fatal("device on crashed node should be dead")
	}
	if !b.qp.Errored() {
		t.Error("QPs on crashed device should be errored")
	}
}

// TestRebootedNodeNaksOldQP: after the peer restarts, a SEND on a QP
// connected to the *previous boot's* QP fails fast with WCRemoteInvalid
// (the reborn NIC knows nothing of the old connection) instead of
// burning the whole retry timeout.
func TestRebootedNodeNaksOldQP(t *testing.T) {
	env := sim.NewEnv(23)
	cl, a, _ := crashPair(env)
	env.At(100, cl.Node(1).Crash)
	env.At(200, cl.Node(1).Restart)
	var wc WC
	var done sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		p.Sleep(1000) // after the restart
		smr := a.pd.RegisterMRNoCost(256)
		a.qp.PostSend(p, &SendWR{WRID: 8, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
		wc = a.cq.PollBusy(p)
		done = p.Now()
	})
	env.Run()
	if wc.WRID != 8 || wc.Status != WCRemoteInvalid {
		t.Errorf("wc = %+v, want wrid 8 WCRemoteInvalid", wc)
	}
	// Fast NAK: well under the 20µs retry timeout.
	if done > 1000+sim.Time(DefaultCostModel().RetryTimeoutNs) {
		t.Errorf("NAK took until %d — slower than the retry-timeout path", done)
	}
}

// TestStaleRkeyAgainstRebootedDeviceFailsRemoteInvalid: an rkey minted
// by the peer's previous boot must not grant access to the reborn
// node's memory — one-sided WRITEs against it fail with
// WCRemoteInvalid even though QPs to the new device work fine.
func TestStaleRkeyAgainstRebootedDeviceFailsRemoteInvalid(t *testing.T) {
	env := sim.NewEnv(24)
	cl, a, b := crashPair(env)
	staleRK := b.pd.RegisterMRNoCost(4096).RKey() // minted in boot epoch 0

	var db2 *Device
	var wcStale, wcFresh WC
	cl.Node(1).SetRestart(func(p *sim.Proc) {
		db2 = OpenDevice(cl.Node(1), DefaultCostModel())
		pd2 := db2.AllocPD()
		cq2 := db2.CreateCQ()
		qp2 := db2.CreateQP(cq2, cq2)
		// Reconnect both sides to the new boot.
		qp2.Connect(a.qp)
		a.qp.Connect(qp2)
		a.qp.Recover(p)
		freshRK := pd2.RegisterMRNoCost(4096).RKey()
		// Stale-epoch rkey: NAKed. Posted unsignaled — the model
		// completes signaled WRITEs locally at wire time, so only an
		// unsignaled WR observes the NAK as its sole completion (the
		// engine's one-sided WRITEs are all unsignaled).
		smr := a.pd.RegisterMRNoCost(4096)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpWrite, SGE: SGE{MR: smr, Len: 64}, Remote: staleRK, Unsignaled: true})
		wcStale = a.cq.PollBusy(p)
		a.qp.Recover(p)
		// Fresh rkey from the new boot: works.
		a.qp.PostSend(p, &SendWR{WRID: 2, Op: OpWrite, SGE: SGE{MR: smr, Len: 64}, Remote: freshRK})
		wcFresh = a.cq.PollBusy(p)
	})
	env.At(100, cl.Node(1).Crash)
	env.At(200, cl.Node(1).Restart)
	env.Run()
	if wcStale.Status != WCRemoteInvalid {
		t.Errorf("stale-rkey WRITE: %+v, want WCRemoteInvalid", wcStale)
	}
	if wcFresh.Status != WCSuccess {
		t.Errorf("fresh-rkey WRITE: %+v, want WCSuccess", wcFresh)
	}
	if db2.Epoch() != 1 {
		t.Errorf("reborn device epoch = %d, want 1", db2.Epoch())
	}
}

// TestReadAgainstDownNodeFailsTyped: a one-sided READ issued while the
// target is down completes with WCRetryExceeded (silence), and against
// a rebooted target with WCRemoteInvalid (NAK).
func TestReadAgainstDownNodeFailsTyped(t *testing.T) {
	env := sim.NewEnv(25)
	cl, a, b := crashPair(env)
	rk := b.pd.RegisterMRNoCost(4096).RKey()
	var down, reborn WC
	env.At(100, cl.Node(1).Crash)
	env.At(400_000, cl.Node(1).Restart)
	env.Spawn("client", func(p *sim.Proc) {
		p.Sleep(1000)
		lmr := a.pd.RegisterMRNoCost(4096)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpRead, SGE: SGE{MR: lmr, Len: 64}, Remote: rk})
		down = a.cq.PollBusy(p)
		p.Sleep(500_000) // past the restart
		a.qp.Recover(p)
		a.qp.PostSend(p, &SendWR{WRID: 2, Op: OpRead, SGE: SGE{MR: lmr, Len: 64}, Remote: rk})
		reborn = a.cq.PollBusy(p)
	})
	env.Run()
	if down.Status != WCRetryExceeded {
		t.Errorf("READ while down: %+v, want WCRetryExceeded", down)
	}
	if reborn.Status != WCRemoteInvalid {
		t.Errorf("READ after reboot: %+v, want WCRemoteInvalid", reborn)
	}
}

// TestRKeyEpochTagging: RKey captures the minting device's boot epoch;
// WCRemoteInvalid has a distinct wire spelling.
func TestRKeyEpochTagging(t *testing.T) {
	env := sim.NewEnv(26)
	_, a, _ := crashPair(env)
	env.Spawn("noop", func(p *sim.Proc) {})
	env.Run()
	rk := a.pd.RegisterMRNoCost(64).RKey()
	if !a.dev.rkeyValid(rk) {
		t.Error("fresh rkey should be valid at its own device")
	}
	if WCRemoteInvalid.String() != "REMOTE_INVALID" {
		t.Errorf("WCRemoteInvalid.String() = %q", WCRemoteInvalid.String())
	}
}

// TestTxFIFOAcrossQPs: a device has one send engine, so WRs leave in
// doorbell order whichever QP they were posted on — the two small sends
// queued behind a 64 KB one keep their order across QPs. (The receiver
// may complete a small message before a large one: placing the large
// one's last packet takes longer. The send completions, raised as each
// message leaves, show the wire's order.)
func TestTxFIFOAcrossQPs(t *testing.T) {
	env := sim.NewEnv(27)
	_, a, b := crashPair(env)
	qa := a.dev.CreateQP(a.cq, a.cq)
	qb := b.dev.CreateQP(b.cq, b.cq)
	qa.Connect(qb)
	qb.Connect(qa)
	const big = 64 << 10
	rmr := b.pd.RegisterMRNoCost(3 * big)
	b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: rmr, Len: big}})
	b.qp.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: rmr, Off: big, Len: big}})
	qb.PostRecv(RecvWR{WRID: 3, SGE: SGE{MR: rmr, Off: 2 * big, Len: big}})
	var got []uint64
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(big)
		a.qp.PostSend(p, &SendWR{WRID: 1, Op: OpSend, SGE: SGE{MR: smr, Len: big}})
		a.qp.PostSend(p, &SendWR{WRID: 2, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
		qa.PostSend(p, &SendWR{WRID: 3, Op: OpSend, SGE: SGE{MR: smr, Len: 64}})
		for len(got) < 3 {
			got = append(got, a.cq.PollBusy(p).WRID)
		}
	})
	env.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 || b.cq.Depth() != 3 {
		t.Fatalf("sent %v (%d received), want [1 2 3]: the send engine reordered WRs", got, b.cq.Depth())
	}
}

// TestCrashBetweenFetchAndTransmit: a node that crashes after its NIC has
// fetched a WQE, while the first packet's DMA is still under way, puts
// nothing on the wire and raises no completion — the send engine dies
// with the node rather than finishing the WR it holds.
func TestCrashBetweenFetchAndTransmit(t *testing.T) {
	env := sim.NewEnv(28)
	cl, a, b := crashPair(env)
	cm := DefaultCostModel()
	fetched := sim.Time(cm.DoorbellNs + cm.WQEProcessNs)
	env.At(fetched+sim.Time(cm.DMATime(PathMTU))/2, cl.Node(0).Crash)
	rmr := b.pd.RegisterMRNoCost(64 << 10)
	b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: rmr, Len: 64 << 10}})
	env.Spawn("client", func(p *sim.Proc) {
		smr := a.pd.RegisterMRNoCost(64 << 10)
		a.qp.PostSend(p, &SendWR{WRID: 7, Op: OpSend, SGE: SGE{MR: smr, Len: 64 << 10}})
	})
	end := env.Run()
	if busy := cl.Node(0).TX.BusyNs(); busy != 0 {
		t.Errorf("crashed NIC kept the wire busy for %d ns", busy)
	}
	if a.cq.Depth() != 0 || b.cq.Depth() != 0 {
		t.Errorf("completions after the crash: sender %d, receiver %d, want none", a.cq.Depth(), b.cq.Depth())
	}
	if end > fetched+sim.Time(cm.DMATime(PathMTU)) {
		t.Errorf("the run went on to %d ns: the dead engine still had work scheduled", end)
	}
}

// TestRestartedNodeTransmits: the device a restarted node opens has a
// send engine of its own, which carries a fresh QP's SEND to the peer.
func TestRestartedNodeTransmits(t *testing.T) {
	env := sim.NewEnv(29)
	cl, _, b := crashPair(env)
	msg := []byte("from the next boot")
	rmr := b.pd.RegisterMRNoCost(64)
	var sent WC
	cl.Node(0).SetRestart(func(p *sim.Proc) {
		d := OpenDevice(cl.Node(0), DefaultCostModel())
		cq := d.CreateCQ()
		qp := d.CreateQP(cq, cq)
		peer := b.dev.CreateQP(b.cq, b.cq)
		qp.Connect(peer)
		peer.Connect(qp)
		peer.PostRecv(RecvWR{WRID: 5, SGE: SGE{MR: rmr, Len: 64}})
		smr := d.AllocPD().RegisterMRNoCost(64)
		copy(smr.Claim(0, len(msg)), msg)
		qp.PostSend(p, &SendWR{WRID: 9, Op: OpSend, SGE: SGE{MR: smr, Len: len(msg)}})
		sent = cq.PollBusy(p)
	})
	env.At(100, cl.Node(0).Crash)
	env.At(200, cl.Node(0).Restart)
	env.Run()
	if sent.WRID != 9 || sent.Status != WCSuccess {
		t.Fatalf("send from the restarted node: %+v, want wrid 9 WCSuccess", sent)
	}
	wc, ok := b.cq.TryPoll()
	if !ok || wc.WRID != 5 || string(rmr.Bytes()[:wc.ByteLen]) != string(msg) {
		t.Fatalf("peer received %+v (ok=%v) %q, want wrid 5 carrying %q", wc, ok, rmr.Bytes()[:wc.ByteLen], msg)
	}
}
