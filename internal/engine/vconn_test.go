package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// TestDedupPerSessionInterleave is the regression for the single-slot
// dedup cache: two virtual sessions interleave on one physical conn,
// then session 1's request is retransmitted. The sid-keyed cache must
// answer it from the cached response without re-running the handler —
// the old single-slot cache was evicted by session 2's call in between
// and would execute the request a second time.
func TestDedupPerSessionInterleave(t *testing.T) {
	env, srvEng, cliEng := testCluster(51)
	runs := 0
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		runs++
		return append([]byte("R"), req...)
	})
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		opts := CallOpts{Proto: EagerSendRecv, RespProto: EagerSendRecv, Busy: true}
		o1, o2 := opts, opts
		o1.SID, o2.SID = 101, 202
		r1, err := c.Call(p, 1, []byte("a"), o1)
		if err != nil || string(r1) != "Ra" {
			t.Errorf("session 1 call: %q, %v", r1, err)
		}
		seq1 := c.seq // the wire seq session 1's request carried
		if _, err := c.Call(p, 1, []byte("b"), o2); err != nil {
			t.Errorf("session 2 call: %v", err)
		}
		if runs != 2 {
			t.Fatalf("handler ran %d times before the retransmit, want 2", runs)
		}
		// Forge the retransmission of session 1's request: same header
		// (sid, seq) as the original.
		h := hdr{kind: kReq, proto: EagerSendRecv, respProto: EagerSendRecv,
			fn: 1, length: 1, seq: seq1, sid: 101}
		c.sendMessage(p, h, []byte("a"), PollBusyMode)
		a := c.nextArrival(p, PollBusyMode)
		if a.Kind != kResp || a.Seq != seq1 || string(a.Payload) != "Ra" {
			t.Errorf("retransmit answer: kind %d seq %d payload %q, want cached kResp seq %d %q",
				a.Kind, a.Seq, a.Payload, seq1, "Ra")
		}
		if runs != 2 {
			t.Errorf("handler ran %d times after the retransmit, want 2 (dedup miss re-executed)", runs)
		}
		if m := a.SID; m != 101 {
			t.Errorf("cached response sid = %d, want 101", m)
		}
		env.Stop()
	})
	env.Run()
}

// TestDedupEvictionBounded: the dedup table holds DefaultDedupSessions
// entries with FIFO insertion-order eviction, so an evicted session's
// retransmission re-executes (at-most-once degrades gracefully to
// at-least-once past the bound) while retained sessions still hit.
func TestDedupEvictionBounded(t *testing.T) {
	env := sim.NewEnv(52)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srvEng := New(cl.Node(0), DefaultConfig())
	cliEng := New(cl.Node(1), DefaultConfig())
	runs := 0
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		runs++
		return []byte("ok")
	})
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		opts := CallOpts{Proto: EagerSendRecv, RespProto: EagerSendRecv, Busy: true}
		seqs := map[uint32]uint32{}
		const last = DefaultDedupSessions + 1 // inserting it evicts sid 1
		for sid := uint32(1); sid <= last; sid++ {
			o := opts
			o.SID = sid
			if _, err := c.Call(p, 1, []byte("x"), o); err != nil {
				t.Errorf("sid %d: %v", sid, err)
			}
			seqs[sid] = c.seq
		}
		replay := func(sid uint32) {
			h := hdr{kind: kReq, proto: EagerSendRecv, respProto: EagerSendRecv,
				fn: 1, length: 1, seq: seqs[sid], sid: sid}
			c.sendMessage(p, h, []byte("x"), PollBusyMode)
			c.nextArrival(p, PollBusyMode)
		}
		replay(last) // retained: cache hit
		if runs != last {
			t.Errorf("retained session replay re-executed (runs %d, want %d)", runs, last)
		}
		replay(1) // evicted: re-executes
		if runs != last+1 {
			t.Errorf("evicted session replay answered from a stale cache (runs %d, want %d)", runs, last+1)
		}
		env.Stop()
	})
	env.Run()
}

// vpoolCluster spawns a fabric and a server whose handler busy-spins for
// the duration encoded in the request's first 4 bytes — letting each
// call pick its own occupancy.
func vpoolCluster(seed int64) (*sim.Env, *Engine, *Engine) {
	env, srvEng, cliEng := testCluster(seed)
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		ns := int64(req[0])<<16 | int64(req[1])<<8 | int64(req[2])
		srvEng.Node().CPU.Compute(p, sim.Duration(ns*1000))
		return req[:1]
	})
	return env, srvEng, cliEng
}

func durReq(us int) []byte {
	return []byte{byte(us >> 16), byte(us >> 8), byte(us), 0}
}

// TestVPoolPriorityClasses: on a 1-conn pool held by a bulk call, a
// high-priority waiter that queued *after* a low-priority one borrows
// first — the priority hint's HOL escape hatch.
func TestVPoolPriorityClasses(t *testing.T) {
	env, srvEng, cliEng := vpoolCluster(53)
	var order []string
	opts := CallOpts{Proto: EagerSendRecv, RespProto: DirectWriteIMM, Busy: true}
	env.Spawn("pool", func(p *sim.Proc) {
		pl := cliEng.DialPool(p, srvEng.Node(), "svc", VPoolConfig{Size: 1, Priority: true})
		low := hints.TypeCheck(hints.Group{hints.KeyPriority: "low"})
		high := hints.TypeCheck(hints.Group{hints.KeyPriority: "high"})
		holder, lo, hi := pl.Open(0, low), pl.Open(0, low), pl.Open(1, high)
		call := func(name string, vc *VConn, us, startNs int64) {
			env.Spawn(name, func(wp *sim.Proc) {
				wp.Sleep(sim.Duration(startNs))
				if _, err := vc.Call(wp, 1, durReq(int(us)), opts); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				order = append(order, name)
			})
		}
		call("holder", holder, 1000, 0) // occupies the only conn ~1ms
		call("low", lo, 1, 10_000)      // queues first...
		call("high", hi, 1, 20_000)     // ...but the high class drains first
	})
	env.Run()
	want := []string{"holder", "high", "low"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}

// TestVPoolTenantCap: a tenant at its borrow cap parks even while the
// pool has free conns, and other tenants keep borrowing past it.
func TestVPoolTenantCap(t *testing.T) {
	env, srvEng, cliEng := vpoolCluster(54)
	var order []string
	opts := CallOpts{Proto: EagerSendRecv, RespProto: DirectWriteIMM, Busy: true}
	var pool *VPool
	env.Spawn("pool", func(p *sim.Proc) {
		pl := cliEng.DialPool(p, srvEng.Node(), "svc", VPoolConfig{Size: 2, TenantCap: 1})
		pool = pl
		r := hints.DefaultResolved()
		t0a, t0b, t1 := pl.Open(0, r), pl.Open(0, r), pl.Open(1, r)
		call := func(name string, vc *VConn, us, startNs int64) {
			env.Spawn(name, func(wp *sim.Proc) {
				wp.Sleep(sim.Duration(startNs))
				if _, err := vc.Call(wp, 1, durReq(int(us)), opts); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				order = append(order, name)
			})
		}
		call("t0-hold", t0a, 1000, 0)   // tenant 0 at cap for ~1ms
		call("t0-wait", t0b, 1, 10_000) // parks on the partition, conn free
		call("t1-go", t1, 1, 20_000)    // other tenant sails past
	})
	env.Run()
	want := []string{"t1-go", "t0-hold", "t0-wait"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if pool.TenantWaits == 0 {
		t.Error("no tenant-cap park counted despite a free conn")
	}
}

// TestVConnSIDs: session ids are nonzero, unique, and carry the tenant
// recoverably — the demux key contract.
func TestVConnSIDs(t *testing.T) {
	env, srvEng, cliEng := testCluster(55)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("pool", func(p *sim.Proc) {
		pl := cliEng.DialPool(p, srvEng.Node(), "svc", VPoolConfig{Size: 1})
		seen := map[uint32]bool{}
		for _, tenant := range []uint32{0, 1, 7, 4095} {
			for i := 0; i < 3; i++ {
				vc := pl.Open(tenant, hints.DefaultResolved())
				if vc.SID() == 0 {
					t.Error("sid 0 assigned to a virtual connection (reserved for legacy)")
				}
				if seen[vc.SID()] {
					t.Errorf("duplicate sid %d", vc.SID())
				}
				seen[vc.SID()] = true
				if got := SIDTenant(vc.SID()); got != tenant {
					t.Errorf("SIDTenant(%#x) = %d, want %d", vc.SID(), got, tenant)
				}
			}
		}
		env.Stop()
	})
	env.Run()
}

// TestServerTenantLimitSheds: the server-side per-tenant partition sheds
// typed once a tenant holds its handler quota, while another tenant's
// traffic is untouched — and sid-0 (legacy) traffic is never partitioned.
func TestServerTenantLimitSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallDeadline = 50_000_000
	env, srvEng, cliEng := flowCluster(56, cfg)
	srv := srvEng.Serve("svc", slowEchoHandler(srvEng.Node(), 500_000))
	srv.TenantLimit = 1
	opts := CallOpts{Proto: EagerSendRecv, RespProto: DirectWriteIMM, Busy: true}
	var t0Shed, legacyShed int
	done := 0
	// Three clients of tenant 0 on separate conns hammer concurrently;
	// with a 1-handler tenant quota at least one call sheds typed.
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("t0-%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			o := opts
			o.SID = makeSID(0, uint32(i+1))
			if _, err := c.Call(p, 1, []byte("x"), o); err != nil {
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("t0-%d: %v", i, err)
				}
				t0Shed++
			}
			if done++; done == 4 {
				env.Stop()
			}
		})
	}
	env.Spawn("legacy", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for j := 0; j < 2; j++ { // sequential sid-0 calls: never partitioned
			if _, err := c.Call(p, 1, []byte("y"), opts); err != nil {
				legacyShed++
				t.Errorf("legacy call %d: %v", j, err)
			}
		}
		if done++; done == 4 {
			env.Stop()
		}
	})
	env.Run()
	tenantShed := ctr(srvEng, "engine.tenant_shed")
	if t0Shed == 0 || tenantShed == 0 {
		t.Errorf("tenant 0 never shed (client %d, server %d), want >0", t0Shed, tenantShed)
	}
	if int64(t0Shed) != tenantShed {
		t.Errorf("client saw %d sheds, server counted %d", t0Shed, tenantShed)
	}
	if legacyShed != 0 {
		t.Errorf("sid-0 traffic hit the tenant partition %d times", legacyShed)
	}
}

// TestSRQCreditOvercommitRNR is the shared-ring exhaustion interaction:
// each server conn grants FlowCredits against its own nominal ring, so
// three conns' credit budgets overcommit a shared ring a third their sum.
// While the dispatchers are wedged in a slow handler the flood draws
// RNR NAKs on the shared ring, yet — with a generous retry budget —
// every oneway eventually lands and the engine stays live. At quiesce
// the shared ring accounts for every slot, and Close unpins the shared
// MR.
func TestSRQCreditOvercommitRNR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EagerSlots = 4
	cfg.SRQSlots = 4 // three conns × 4 credits each overcommit this
	cfg.FlowCredits = 4
	cfg.ModelRNR = true
	cfg.RnrRetry = 100
	env, srvEng, cliEng := flowCluster(57, cfg)
	srvEng.Serve("svc", slowEchoHandler(srvEng.Node(), 100_000))
	// Each dispatcher drains its own completions a batch at a time and
	// reposts their slots before running the handlers, so it takes three
	// conns' budgets to overrun the ring.
	const conns = 3
	done := 0
	for i := 0; i < conns; i++ {
		i := i
		env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for j := 0; j < 8; j++ {
				if _, err := c.Call(p, 1, []byte("flood"), CallOpts{Proto: EagerSendRecv, Oneway: true, Busy: true}); err != nil {
					t.Errorf("cl%d oneway %d: %v", i, j, err)
				}
			}
			p.Sleep(5_000_000) // drain the backlog
			resp, err := c.Call(p, 2, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true})
			if err != nil || string(resp) != "ECHOafter" {
				t.Errorf("cl%d post-flood: %q, %v", i, resp, err)
			}
			if done++; done == conns {
				env.Stop()
			}
		})
	}
	env.Run()
	if ctr(srvEng, "verbs.rnr_naks") == 0 {
		t.Error("credit overcommit on the shared ring drew no RNR NAKs")
	}
	// Shared-ring leak accounting: posted depth + unpolled completions
	// across every attached conn must equal the ring size at quiesce.
	unpolled := 0
	for _, c := range srvEng.Conns() {
		unpolled += c.UnpolledRecvs()
		if got := c.PostedRecvs(); got != 0 {
			t.Errorf("conn %d: private ring depth %d on an SRQ conn, want 0", c.ID(), got)
		}
	}
	if got := srvEng.SRQDepth() + unpolled; got != cfg.SRQSlots {
		t.Errorf("shared ring accounts for %d slots (%d posted + %d unpolled), want %d",
			got, srvEng.SRQDepth(), unpolled, cfg.SRQSlots)
	}
	srvEng.Close()
	if got := srvEng.PinnedBytes(); got != 0 {
		t.Errorf("server pinned bytes after Close = %d, want 0 (shared ring leak)", got)
	}
}

// virtTrace runs a fixed multi-protocol workload and serializes its
// trace + metrics. armed=true configures the virtualization knob that is
// supposed to be pay-for-use (the tenant partition) without sending a
// single sid — the traffic itself stays legacy.
func virtTrace(t *testing.T, seed int64, armed bool) []byte {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srvEng := New(cl.Node(0), DefaultConfig())
	cliEng := New(cl.Node(1), DefaultConfig())
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	reg.SetTracer(tr)
	srvEng.SetObs(reg)
	cliEng.SetObs(reg)
	srv := srvEng.Serve("svc", echoHandler)
	if armed {
		srv.TenantLimit = 2
	}
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i, proto := range []Protocol{EagerSendRecv, DirectWriteIMM, WriteRNDV, ReadRNDV, RFP, Pilaf} {
			if _, err := c.Call(p, uint32(i), make([]byte, 2048), CallOpts{Proto: proto, Busy: true}); err != nil {
				t.Errorf("%s: %v", proto, err)
			}
		}
		env.Stop()
	})
	env.Run()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(reg.Render())
	return buf.Bytes()
}

// TestVirtualizationOffZeroPerturbation: with virtualization knobs
// armed but no session ids on the wire, the run is byte-identical to a
// default-config run — the tier costs exactly nothing until a sid
// flows, which also means legacy traffic (sid 0, SRQSlots 0) behaves
// identically to pre-virtualization builds.
func TestVirtualizationOffZeroPerturbation(t *testing.T) {
	off := virtTrace(t, 58, false)
	armed := virtTrace(t, 58, true)
	if !bytes.Equal(off, armed) {
		t.Fatal("armed-but-unused virtualization tier perturbed the trace")
	}
}
