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

// chaosCluster builds a 2-node cluster with a fault plan installed, the
// reliability layer armed via Config.CallDeadline, and each engine
// observed by a registry of its own.
func chaosCluster(seed int64, fc simnet.FaultConfig, deadline sim.Duration) (*sim.Env, *Engine, *Engine) {
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cl.InstallFaults(fc)
	cfg := DefaultConfig()
	cfg.CallDeadline = deadline
	srv := New(cl.Node(0), cfg)
	cli := New(cl.Node(1), cfg)
	observe(srv, cli)
	return env, srv, cli
}

// TestChaosEveryProtocolCompletesUnderLoss is the tentpole acceptance
// test: with 1–5% per-hop packet loss, every request/response protocol
// still completes every call via the deadline/retry/dedup layer.
func TestChaosEveryProtocolCompletesUnderLoss(t *testing.T) {
	const calls = 8
	for _, loss := range []float64{0.01, 0.05} {
		for _, proto := range AllProtocols {
			for _, busy := range []bool{true, false} {
				name := fmt.Sprintf("loss=%v/%s/busy=%v", loss, proto, busy)
				t.Run(name, func(t *testing.T) {
					env, srvEng, cliEng := chaosCluster(31, simnet.FaultConfig{DropProb: loss}, 20_000_000)
					srv := srvEng.Serve("svc", echoHandler)
					srv.Busy = busy
					env.Spawn("client", func(p *sim.Proc) {
						c := cliEng.Dial(p, srvEng.Node(), "svc")
						for i := 0; i < calls; i++ {
							req := []byte(fmt.Sprintf("req-%02d-%s", i, proto))
							resp, err := c.Call(p, uint32(i), req, CallOpts{Proto: proto, Busy: busy})
							if err != nil {
								t.Errorf("call %d: %v", i, err)
								break
							}
							if want := "ECHO" + string(req); string(resp) != want {
								t.Errorf("call %d: got %q, want %q", i, resp, want)
								break
							}
						}
						env.Stop()
					})
					env.Run()
				})
			}
		}
	}
}

// TestChaosLargePayloadsUnderLoss exercises the rendezvous machinery
// (CTS grants, pool buffers, FINs) across the loss/retransmit path with
// multi-fragment payloads.
func TestChaosLargePayloadsUnderLoss(t *testing.T) {
	for _, proto := range []Protocol{EagerSendRecv, WriteRNDV, ReadRNDV, HybridEagerRNDV} {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := chaosCluster(47, simnet.FaultConfig{DropProb: 0.03}, 50_000_000)
			srvEng.Serve("svc", echoHandler)
			env.Spawn("client", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				req := make([]byte, 100_000)
				for i := range req {
					req[i] = byte(i * 13)
				}
				for i := 0; i < 4; i++ {
					resp, err := c.Call(p, 1, req, CallOpts{Proto: proto, RespProto: DirectWriteIMM, Busy: true})
					if err != nil {
						t.Errorf("call %d: %v", i, err)
						break
					}
					want := echoHandler(nil, 1, req)
					if !bytes.Equal(resp, want) {
						t.Errorf("call %d: corrupted response (%d bytes, want %d)", i, len(resp), len(want))
						break
					}
				}
				env.Stop()
			})
			env.Run()
		})
	}
}

// TestChaosOnewayCompletes covers the fire-and-forget path under loss:
// sendOnewayReliable must return without error and without leaking
// rendezvous state.
func TestChaosOnewayCompletes(t *testing.T) {
	env, srvEng, cliEng := chaosCluster(53, simnet.FaultConfig{DropProb: 0.03}, 20_000_000)
	srvEng.Serve("svc", echoHandler)
	var cli *Conn
	env.Spawn("client", func(p *sim.Proc) {
		cli = cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < 6; i++ {
			if _, err := cli.Call(p, 1, []byte("oneway"), CallOpts{Proto: DirectWriteIMM, Oneway: true, Busy: true}); err != nil {
				t.Errorf("oneway %d: %v", i, err)
			}
		}
		// A request/response call after the oneways proves the connection
		// state survived.
		if resp, err := cli.Call(p, 2, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil || string(resp) != "ECHOafter" {
			t.Errorf("follow-up call: %q %v", resp, err)
		}
		env.Stop()
	})
	env.Run()
}

// TestChaosLinkFlapsAndPauses drives the remaining fault features: every
// directed link flaps dark 10% of the time and the server node pauses
// periodically; all calls must still complete within the deadline.
func TestChaosLinkFlapsAndPauses(t *testing.T) {
	env, srvEng, cliEng := chaosCluster(67, simnet.FaultConfig{
		FlapPeriodNs: 500_000, FlapDownNs: 50_000,
		PausePeriodNs: 400_000, PauseForNs: 30_000, PausedNodes: []int{0},
	}, 50_000_000)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < 12; i++ {
			req := []byte(fmt.Sprintf("flap-%02d", i))
			resp, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, Busy: false})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				break
			}
			if want := "ECHO" + string(req); string(resp) != want {
				t.Errorf("call %d: got %q", i, resp)
				break
			}
		}
		env.Stop()
	})
	env.Run()
}

// TestChaosDeadlineExceededTyped drives a link with 100% loss: the call
// cannot complete, must return a typed error promptly, and the abort
// path must reclaim per-seq state so Close releases every pinned byte.
func TestChaosDeadlineExceededTyped(t *testing.T) {
	for _, proto := range []Protocol{EagerSendRecv, DirectWriteIMM, WriteRNDV, ReadRNDV, Pilaf, RFP} {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := chaosCluster(61, simnet.FaultConfig{DropProb: 1.0}, 300_000)
			srvEng.Serve("svc", echoHandler)
			env.Spawn("client", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				_, err := c.Call(p, 1, make([]byte, 64), CallOpts{Proto: proto, Busy: true})
				// Typed errors arrive wrapped with per-call context; only
				// errors.Is (here via IsUnavailable) matches them.
				if !IsUnavailable(err) {
					t.Errorf("err = %v, want ErrDeadline or ErrPeerDown", err)
				}
				if p.Now() < 300_000 {
					t.Errorf("returned before the deadline at t=%d", p.Now())
				}
				c.Close()
				env.Stop()
			})
			env.Run()
			// Conn.Close returns in-flight rendezvous buffers to the engine
			// pool (still pinned); Engine.Close drains the pool itself.
			cliEng.Close()
			if got := cliEng.PinnedBytes(); got != 0 {
				t.Errorf("client pinned bytes after failed call + Close = %d, want 0", got)
			}
		})
	}
}

// TestChaosDeadlineWithoutFaultsStillBounds checks the deadline fires
// even when the transport is healthy but the peer never answers.
func TestChaosDeadlineNoServer(t *testing.T) {
	env := sim.NewEnv(71)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srvEng := New(cl.Node(0), DefaultConfig())
	cliEng := New(cl.Node(1), DefaultConfig())
	// Listener accepts but nobody dispatches: requests vanish into the
	// arrival queue.
	srvEng.Listen("svc")
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		_, err := c.Call(p, 1, []byte("hello?"), CallOpts{Proto: EagerSendRecv, Busy: true, Deadline: 500_000})
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("err = %v, want ErrDeadline", err)
		}
		env.Stop()
	})
	env.Run()
}

// TestChaosLossPlusOverload is the combined robustness test (satellite
// of the flow-control PR): packet loss AND a 3x-oversubscribed server
// with shed-newest admission, credits, RNR arming, and the circuit
// breaker all at once. Every call must either succeed with a correct
// echo or fail with a *typed* overload/deadline error — never a
// corrupted response, never an untyped failure — and quiescing must
// leave zero pinned bytes and a fully accounted RECV ring.
func TestChaosLossPlusOverload(t *testing.T) {
	const (
		nClients = 6
		nCalls   = 8
	)
	env, srvEng, cliEng := chaosCluster(83, simnet.FaultConfig{DropProb: 0.02}, 20_000_000)
	// Arm the whole overload stack on both engines' future conns.
	for _, e := range []*Engine{srvEng, cliEng} {
		e.cfg.FlowCredits = e.cfg.EagerSlots
		e.cfg.ModelRNR = true
		e.cfg.BreakerThreshold = 5
		e.cfg.BreakerCooldown = 1_000_000
	}
	srv := srvEng.Serve("svc", slowEchoHandler(srvEng.Node(), 200_000))
	srv.AdmitLimit = 2
	srv.Admit = AdmitShedNewest
	protos := []Protocol{EagerSendRecv, DirectWriteIMM, WriteRNDV}
	var succ, shed, brk, dead int
	done := 0
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		env.Spawn(fmt.Sprintf("client-%d", ci), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for i := 0; i < nCalls; i++ {
				req := []byte(fmt.Sprintf("c%d-call%d", ci, i))
				resp, err := c.Call(p, uint32(i), req, CallOpts{
					Proto: protos[(ci+i)%len(protos)], RespProto: DirectWriteIMM, Busy: true,
				})
				switch {
				case err == nil:
					if want := "ECHO" + string(req); string(resp) != want {
						t.Errorf("client %d call %d: corrupted response %q", ci, i, resp)
					}
					succ++
				case errors.Is(err, ErrOverloaded):
					shed++
					p.Sleep(300_000) // back off before retrying the next call
				case errors.Is(err, ErrCircuitOpen):
					brk++
					p.Sleep(1_200_000) // sit out the cooldown
				case errors.Is(err, ErrDeadline), errors.Is(err, ErrPeerDown):
					dead++
				default:
					t.Errorf("client %d call %d: untyped error %v", ci, i, err)
				}
			}
			if done++; done == nClients {
				env.Stop()
			}
		})
	}
	env.Run()
	if succ == 0 {
		t.Error("no call ever succeeded under overload — shedding starved everyone")
	}
	if shed == 0 {
		t.Error("3x oversubscription shed nothing — admission control unexercised")
	}
	if ctr(srvEng, "engine.shed.") == 0 {
		t.Error("server-side shed counter is zero")
	}
	t.Logf("succ=%d shed=%d breaker=%d deadline=%d engine.shed=%d rnrNaks=%d",
		succ, shed, brk, dead, ctr(srvEng, "engine.shed."), ctr(srvEng, "verbs.rnr_naks"))
	assertNoLeaks(t, srvEng, cliEng)
}

// chaosTrace runs a fixed workload with tracing attached and returns the
// serialized trace. plan==nil runs without InstallFaults.
func chaosTrace(t *testing.T, seed int64, plan *simnet.FaultConfig, deadline sim.Duration) []byte {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	if plan != nil {
		cl.InstallFaults(*plan)
	}
	cfg := DefaultConfig()
	cfg.CallDeadline = deadline
	srvEng := New(cl.Node(0), cfg)
	cliEng := New(cl.Node(1), cfg)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	reg.SetTracer(tr)
	srvEng.SetObs(reg)
	cliEng.SetObs(reg)
	if fp := cl.Faults(); fp != nil {
		fp.SetObs(reg)
	}
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i, proto := range []Protocol{EagerSendRecv, DirectWriteIMM, WriteRNDV, RFP} {
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

// TestChaosDeterministicTraces: the same seed and fault plan yield a
// byte-identical trace; a different seed yields a different one.
func TestChaosDeterministicTraces(t *testing.T) {
	plan := &simnet.FaultConfig{DropProb: 0.05, JitterNs: 300}
	a := chaosTrace(t, 5, plan, 20_000_000)
	b := chaosTrace(t, 5, plan, 20_000_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + same fault plan produced different traces")
	}
	c := chaosTrace(t, 6, plan, 20_000_000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces (faults not seed-driven?)")
	}
}

// TestFaultsDisabledZeroCost: an installed all-zero fault plan must not
// perturb the simulation at all — its trace is byte-identical to a run
// with no plan installed. This is the "zero-cost opt-in" guarantee.
func TestFaultsDisabledZeroCost(t *testing.T) {
	off := chaosTrace(t, 9, nil, 0)
	zero := chaosTrace(t, 9, &simnet.FaultConfig{}, 0)
	if !bytes.Equal(off, zero) {
		t.Fatal("zero-valued fault plan perturbed the trace")
	}
}
