package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// flowCluster builds a 2-node cluster with the given engine config on
// both ends, each observed by a registry of its own.
func flowCluster(seed int64, cfg Config) (*sim.Env, *Engine, *Engine) {
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srv := New(cl.Node(0), cfg)
	cli := New(cl.Node(1), cfg)
	observe(srv, cli)
	return env, srv, cli
}

// assertNoLeaks is the leak-assertion helper the satellite asks for: at
// quiescence every consumed RECV has been reposted (ring back at full
// depth) and, after Close, no pinned bytes remain on either engine. The
// chaos tests reuse it.
func assertNoLeaks(t *testing.T, engines ...*Engine) {
	t.Helper()
	for _, e := range engines {
		slots := e.Config().EagerSlots
		for _, c := range e.Conns() {
			if got := c.PostedRecvs() + c.UnpolledRecvs(); got != slots {
				t.Errorf("node %d conn %d: %d accounted RECVs at quiesce (%d posted + %d unpolled), want %d (repost leak)",
					e.Node().ID(), c.ID(), got, c.PostedRecvs(), c.UnpolledRecvs(), slots)
			}
		}
		e.Close()
		if got := e.PinnedBytes(); got != 0 {
			t.Errorf("node %d: %d pinned bytes after Close, want 0", e.Node().ID(), got)
		}
	}
}

// overrunWorkload sends one 60 KB eager request, 15 ring-slot fragments,
// through a 4-slot ring to a server whose cores are over-committed 20
// times, so its dispatcher reposts each slot later than the next fragment
// lands, then validates liveness with a normal call. A connection carries
// one call at a time, and without the extra load that call was not seen
// to overrun the ring.
func overrunWorkload(t *testing.T, cfg Config) (srvEng, cliEng *Engine) {
	t.Helper()
	cfg.EagerSlots = 4
	cfg.ModelRNR = true
	env, srvEng, cliEng := flowCluster(11, cfg)
	srvEng.Serve("svc", echoHandler)
	cpu := srvEng.Node().CPU
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		req := pattern(60_000)
		cpu.AddLoad(20 * cpu.Cores())
		resp, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, Busy: true})
		cpu.RemoveLoad(20 * cpu.Cores())
		if want := echoHandler(nil, 1, req); err != nil || !bytes.Equal(resp, want) {
			t.Fatalf("60 KB call: %d bytes, %v", len(resp), err)
		}
		resp, err = c.Call(p, 2, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHOafter" {
			t.Errorf("post-overrun call: %q, %v", resp, err)
		}
		env.Stop()
	})
	env.Run()
	return srvEng, cliEng
}

// TestCreditsPreventRNR: the overrun with flow control on. Credits make
// the client block instead of overrunning, so the request completes with
// zero RNR NAKs — a credit-respecting client never triggers RNR.
func TestCreditsPreventRNR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowCredits = 4
	srvEng, cliEng := overrunWorkload(t, cfg)
	if naks := ctr(srvEng, "verbs.rnr_naks") + ctr(cliEng, "verbs.rnr_naks"); naks != 0 {
		t.Errorf("credit-respecting client drew %d RNR NAKs, want 0", naks)
	}
	if ctr(cliEng, "engine.rnr_failures") != 0 {
		t.Errorf("engine.rnr_failures = %d, want 0", ctr(cliEng, "engine.rnr_failures"))
	}
	if ctr(cliEng, "engine.credit_stalls.") == 0 {
		t.Error("no credit stalls recorded — the request never waited, so the test exercised nothing")
	}
	assertNoLeaks(t, srvEng, cliEng)
}

// TestNoCreditsDrawsRNR is the control experiment: the same request with
// flow control off drives SENDs into the exhausted ring and draws RNR
// NAKs (recovered by the RNR-timer retransmissions, given a generous
// retry budget).
func TestNoCreditsDrawsRNR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RnrRetry = 100 // generous: NAKs delay, never kill
	srvEng, cliEng := overrunWorkload(t, cfg)
	if ctr(srvEng, "verbs.rnr_naks") == 0 {
		t.Error("ring overrun without credits drew no RNR NAKs — the control proves nothing")
	}
	if ctr(cliEng, "engine.rnr_failures") != 0 {
		t.Errorf("engine.rnr_failures = %d with a generous retry budget, want 0", ctr(cliEng, "engine.rnr_failures"))
	}
}

// TestCreditsFragmentedEagerCompletes: a 60 KB eager payload through a
// 4-slot ring is ~15 fragments — far more than the credit budget. The
// per-fragment credit acquisition must neither deadlock nor corrupt the
// reassembly.
func TestCreditsFragmentedEagerCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EagerSlots = 4
	cfg.FlowCredits = 4
	cfg.ModelRNR = true
	env, srvEng, cliEng := flowCluster(19, cfg)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		req := make([]byte, 60_000)
		for i := range req {
			req[i] = byte(i)
		}
		for i := 0; i < 3; i++ {
			resp, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, RespProto: DirectWriteIMM, Busy: true})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if want := echoHandler(nil, 1, req); !bytes.Equal(resp, want) {
				t.Fatalf("call %d: corrupted response", i)
			}
		}
		env.Stop()
	})
	env.Run()
	if naks := ctr(srvEng, "verbs.rnr_naks") + ctr(cliEng, "verbs.rnr_naks"); naks != 0 {
		t.Errorf("fragmented eager with credits drew %d RNR NAKs, want 0", naks)
	}
	assertNoLeaks(t, srvEng, cliEng)
}

// TestCreditUpdatesKeepALongRequestAlive: a request of more fragments
// than the credit budget is a one-directional flow — no response to
// piggyback grants on until it has landed whole — so the kCredit updates
// alone keep it live. Blocking sends through a tiny budget would deadlock
// without them.
func TestCreditUpdatesKeepALongRequestAlive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EagerSlots = 4
	cfg.FlowCredits = 4
	env, srvEng, cliEng := flowCluster(17, cfg)
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte { return nil })
	done := false
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		// 15 fragments through 4 credits, three times over.
		for i := 0; i < 3; i++ {
			if _, err := c.Call(p, 1, pattern(60_000), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		done = true
		env.Stop()
	})
	env.Run()
	if !done {
		t.Fatal("the long requests deadlocked (credit updates never arrived)")
	}
	if got := ctr(srvEng, "engine.credit_updates"); got == 0 {
		t.Error("the long requests completed without any kCredit updates — what replenished the budget?")
	}
}

// slowEchoHandler returns an echo handler that charges busyNs of CPU per
// request on the given node.
func slowEchoHandler(node *simnet.Node, busyNs int64) Handler {
	return func(p *sim.Proc, fn uint32, req []byte) []byte {
		node.CPU.Compute(p, sim.Duration(busyNs))
		return echoHandler(p, fn, req)
	}
}

// duelConfig is the overloadDuel default: a deadline no queued call
// reaches.
func duelConfig() Config {
	cfg := DefaultConfig()
	cfg.CallDeadline = 50_000_000
	return cfg
}

// overloadDuel runs nConns clients hammering a 1-slot server with the
// given admission policy and returns (successes, overloaded, other
// errors). Whatever the policy, the handler must only ever see a
// request's own bytes.
func overloadDuel(t *testing.T, cfg Config, policy AdmitPolicy, nConns, callsPer int) (succ, shed, other int, srvShed int64) {
	t.Helper()
	env, srvEng, cliEng := flowCluster(23, cfg)
	slow := slowEchoHandler(srvEng.Node(), 100_000)
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		if string(req) != "duel" {
			t.Errorf("handler ran on payload %q", req)
		}
		return slow(p, fn, req)
	})
	srv.AdmitLimit = 1
	srv.Admit = policy
	results := make(chan error, nConns*callsPer)
	for i := 0; i < nConns; i++ {
		env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for j := 0; j < callsPer; j++ {
				_, err := c.Call(p, 1, []byte("duel"), CallOpts{Proto: EagerSendRecv, Busy: false})
				results <- err
			}
		})
	}
	env.Spawn("stopper", func(p *sim.Proc) {
		for len(results) < nConns*callsPer {
			p.Sleep(1_000_000)
		}
		env.Stop()
	})
	env.Run()
	close(results)
	for err := range results {
		switch {
		case err == nil:
			succ++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			other++
		}
	}
	if n := ctr(cliEng, "engine.rnr_failures"); n != 0 {
		t.Errorf("%d work requests ran out of RNR retries", n)
	}
	return succ, shed, other, ctr(srvEng, "engine.shed.")
}

// TestOverloadControlArmCompletes runs the duel as the RNR control arm:
// blocking admission, no credits, 2-deep finite rings, and a deadline the
// queue outlasts. Calls expire in the queue, clients move on to their
// next request, and an RNR-NAKed retransmission of the abandoned one is
// re-delivered behind it: the dispatcher must drop that stale duplicate,
// not run the handler on its empty payload (overloadDuel checks both that
// and the RNR budget), and the server keeps serving meanwhile.
func TestOverloadControlArmCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallDeadline = 600_000 // 4 clients × 100 µs a call, plus retransmissions, queue longer
	cfg.EagerSlots = 2
	cfg.ModelRNR = true
	cfg.RnrRetry = 40
	succ, shed, other, _ := overloadDuel(t, cfg, AdmitBlock, 4, 12)
	if shed != 0 {
		t.Errorf("block policy shed %d calls", shed)
	}
	if other == 0 {
		t.Error("no call outlived its deadline in the queue — the control arm is not overloaded")
	}
	if succ <= other {
		t.Errorf("%d calls served, %d expired: the server stopped making progress", succ, other)
	}
}

// TestAdmitBlockServesEverything: the block policy sheds nothing; every
// call queues and completes.
func TestAdmitBlockServesEverything(t *testing.T) {
	succ, shed, other, srvShed := overloadDuel(t, duelConfig(), AdmitBlock, 6, 4)
	if shed != 0 || other != 0 || srvShed != 0 {
		t.Errorf("block policy shed %d / errored %d (server shed %d), want 0", shed, other, srvShed)
	}
	if succ != 24 {
		t.Errorf("successes = %d, want 24", succ)
	}
}

// TestAdmitShedNewestRejectsTyped: shed-newest rejects over-limit
// arrivals with ErrOverloaded, serves the rest, and every rejection is
// typed (no untyped failures).
func TestAdmitShedNewestRejectsTyped(t *testing.T) {
	succ, shed, other, srvShed := overloadDuel(t, duelConfig(), AdmitShedNewest, 6, 4)
	if other != 0 {
		t.Errorf("%d untyped failures under shed-newest", other)
	}
	if shed == 0 {
		t.Error("6 clients into a 1-slot server shed nothing — admission control inert")
	}
	if int64(shed) != srvShed {
		t.Errorf("client-observed sheds %d != server Shed %d", shed, srvShed)
	}
	if succ == 0 {
		t.Error("no successes at all")
	}
}

// TestShedTypedOnEveryResponseProtocol: the kErr/shed marker must reach
// the client on every response channel — the two-sided ring, HERD's
// ring, and the header RFP, Pilaf and FaRM probe for at the call's seq.
func TestShedTypedOnEveryResponseProtocol(t *testing.T) {
	for _, respProto := range []Protocol{EagerSendRecv, DirectWriteIMM, HERD, RFP, Pilaf, FaRM} {
		t.Run(respProto.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CallDeadline = 50_000_000
			env, srvEng, cliEng := flowCluster(29, cfg)
			srv := srvEng.Serve("svc", slowEchoHandler(srvEng.Node(), 2_000_000))
			srv.AdmitLimit = 1
			srv.Admit = AdmitShedNewest
			env.Spawn("hog", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				if _, err := c.Call(p, 1, []byte("hog"), CallOpts{Proto: EagerSendRecv, Busy: false}); err != nil {
					t.Errorf("hog: %v", err)
				}
			})
			env.Spawn("victim", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				p.Sleep(200_000) // let the hog occupy the only slot
				_, err := c.Call(p, 2, []byte("victim"), CallOpts{Proto: EagerSendRecv, RespProto: respProto, Busy: true})
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("victim err = %v, want ErrOverloaded", err)
				}
				// After the hog drains, the same connection must serve a
				// normal call (shed left no stuck per-seq state).
				p.Sleep(3_000_000)
				resp, err := c.Call(p, 3, []byte("again"), CallOpts{Proto: EagerSendRecv, RespProto: respProto, Busy: true})
				if err != nil || string(resp) != "ECHOagain" {
					t.Errorf("post-shed call: %q, %v", resp, err)
				}
				// Quiesce: the 2 ms handler outlasted several retransmission
				// timers, and the dispatcher is still answering that batch of
				// duplicates from its dedup cache.
				p.Sleep(100_000)
				env.Stop()
			})
			env.Run()
			if ctr(srvEng, "engine.shed.") == 0 {
				t.Error("server shed nothing")
			}
			assertNoLeaks(t, srvEng, cliEng)
		})
	}
}

// TestBreakerTripsAndRecovers drives the full breaker state machine:
// consecutive ErrOverloaded trips it, open rejects locally with
// ErrCircuitOpen, and a half-open probe after the cooldown closes it.
func TestBreakerTripsAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallDeadline = 50_000_000
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 2_000_000
	env, srvEng, cliEng := flowCluster(31, cfg)
	srv := srvEng.Serve("svc", slowEchoHandler(srvEng.Node(), 3_000_000))
	srv.AdmitLimit = 1
	srv.Admit = AdmitShedNewest
	env.Spawn("hog", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		if _, err := c.Call(p, 1, []byte("hog"), CallOpts{Proto: EagerSendRecv, Busy: false}); err != nil {
			t.Errorf("hog: %v", err)
		}
	})
	env.Spawn("victim", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		p.Sleep(200_000)
		// Two consecutive sheds trip the threshold-2 breaker.
		for i := 0; i < 2; i++ {
			if _, err := c.Call(p, 2, []byte("v"), CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("call %d err = %v, want ErrOverloaded", i, err)
			}
		}
		// Open: rejected locally, instantly, without touching the wire.
		before := p.Now()
		if _, err := c.Call(p, 2, []byte("v"), CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-state err = %v, want ErrCircuitOpen", err)
		}
		if p.Now() != before {
			t.Errorf("open-state rejection charged %d ns, want 0 (local fail)", p.Now()-before)
		}
		// After the cooldown (and the hog draining) the half-open probe
		// goes through and closes the breaker.
		p.Sleep(4_000_000)
		resp, err := c.Call(p, 3, []byte("probe"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHOprobe" {
			t.Fatalf("half-open probe: %q, %v", resp, err)
		}
		// Closed again: normal service.
		if _, err := c.Call(p, 4, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil {
			t.Fatalf("post-close call: %v", err)
		}
		env.Stop()
	})
	env.Run()
	if got := ctr(cliEng, "engine.breaker_open"); got != 1 {
		t.Errorf("engine.breaker_open = %d, want 1", got)
	}
}

// flowTrace mirrors chaosTrace but parameterizes the overload knobs: it
// runs a light well-behaved workload (single outstanding call, payloads
// far under the ring depth) and returns the serialized trace + metrics.
func flowTrace(t *testing.T, seed int64, arm bool) []byte {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cfg := DefaultConfig()
	if arm {
		cfg.FlowCredits = cfg.EagerSlots
		cfg.ModelRNR = true
		cfg.BreakerThreshold = 3
	}
	srvEng := New(cl.Node(0), cfg)
	cliEng := New(cl.Node(1), cfg)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	reg.SetTracer(tr)
	srvEng.SetObs(reg)
	cliEng.SetObs(reg)
	srvEng.Serve("svc", echoHandler)
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
	buf.WriteString(reg.Exposition())
	return buf.Bytes()
}

// TestOverloadLayerUnexercisedZeroPerturbation is the zero-cost
// acceptance check from the other side: with the WHOLE overload layer
// armed (RNR model, full credit budget, breaker) but a well-behaved
// workload that never stalls, NAKs, sheds, or trips, the trace is
// byte-identical to a run with everything disabled. The layer costs
// exactly nothing until it fires — which also implies the disabled
// default path is byte-identical to pre-layer builds.
func TestOverloadLayerUnexercisedZeroPerturbation(t *testing.T) {
	off := flowTrace(t, 41, false)
	armed := flowTrace(t, 41, true)
	if !bytes.Equal(off, armed) {
		t.Fatal("armed-but-unexercised overload layer perturbed the trace")
	}
}
