package engine

import (
	"errors"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// sessionCluster builds a 2-node cluster whose server node re-creates
// its engine and service from a restart hook — the full crash–restart
// lifecycle a Session is built to survive. The client engine carries a
// registry (observe); the returned getter yields the server engine of the
// current boot.
func sessionCluster(seed int64) (*sim.Env, *simnet.Cluster, *Engine, func() *Engine) {
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srvEng := New(cl.Node(0), DefaultConfig())
	srvEng.Serve("svc", echoHandler)
	cur := srvEng
	cl.Node(0).SetRestart(func(p *sim.Proc) {
		cur = New(cl.Node(0), DefaultConfig())
		cur.Serve("svc", echoHandler)
	})
	cliEng := New(cl.Node(1), DefaultConfig())
	observe(cliEng)
	return env, cl, cliEng, func() *Engine { return cur }
}

// TestSessionReplaysAcrossRestart is the lifecycle tentpole test: a call
// interrupted by the server crashing is replayed on a fresh connection to
// the server's next boot, invisibly to the caller.
func TestSessionReplaysAcrossRestart(t *testing.T) {
	env, cl, cliEng, _ := sessionCluster(101)
	env.At(500_000, cl.Node(0).Crash)
	env.At(700_000, cl.Node(0).Restart)
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		s := cliEng.OpenSession(cl.Node(0), "svc", false)
		resp, err := s.Call(p, 1, []byte("before"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHObefore" {
			t.Errorf("pre-crash call: %q, %v", resp, err)
			return
		}
		p.Sleep(800_000) // past the crash and the restart
		resp, err = s.Call(p, 2, []byte("after"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil || string(resp) != "ECHOafter" {
			t.Errorf("post-restart call: %q, %v", resp, err)
		}
	})
	env.Run()
	if f, r := ctr(cliEng, "engine.session_failovers"), ctr(cliEng, "engine.replays"); f != 1 || r == 0 {
		t.Errorf("session_failovers = %d, replays = %d; want one reconnect and > 0 replays", f, r)
	}
}

// TestSessionDialDownNodeFailsTyped pins the session's dial budget: a call
// to a down node spends exactly two dials, 50 µs apart, and fails with
// ErrPeerDown instead of blocking forever.
func TestSessionDialDownNodeFailsTyped(t *testing.T) {
	env, cl, cliEng, _ := sessionCluster(109)
	env.At(100, cl.Node(0).Crash)
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		p.Sleep(1000)
		start := p.Now()
		if _, err := cliEng.TryDial(p, cl.Node(0), "svc", false, p.Now()+sim.Time(sessionHandshakeTimeoutNs)); !errors.Is(err, ErrPeerDown) {
			t.Errorf("one dial to a down node: %v, want ErrPeerDown", err)
			return
		}
		dial := p.Now() - start
		start = p.Now()
		_, err := cliEng.OpenSession(cl.Node(0), "svc", false).Call(p, 1, []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if !errors.Is(err, ErrPeerDown) {
			t.Errorf("call to a down node: %v, want ErrPeerDown", err)
		}
		if took, want := p.Now()-start, 2*dial+50_000; took != want {
			t.Errorf("call failed after %d ns, want %d: two %d ns dials 50 µs apart", took, want, dial)
		}
	})
	env.Run()
}

// TestBreakerHalfOpenProbeTimeout is the regression test for the
// half-open → QP-recover path: when the breaker's half-open probe
// itself times out, the gate must still have recovered the errored QP
// before the attempt (so the probe really touched the wire), and the
// failed probe must re-open the breaker with a doubled cooldown.
func TestBreakerHalfOpenProbeTimeout(t *testing.T) {
	env := sim.NewEnv(127)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cl.InstallFaults(simnet.FaultConfig{DropProb: 1.0}) // nothing gets through, ever
	cfg := DefaultConfig()
	cfg.CallDeadline = 300_000
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 1_000_000
	srvEng := New(cl.Node(0), cfg)
	cliEng := New(cl.Node(1), cfg)
	reg := obs.NewRegistry()
	cliEng.SetObs(reg)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		// Two availability-class failures trip the threshold-2 breaker.
		for i := 0; i < 2; i++ {
			if _, err := c.Call(p, uint32(i), []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); !IsUnavailable(err) {
				t.Fatalf("call %d: %v, want unavailable", i, err)
			}
		}
		if c.brk.state != brkOpen {
			t.Fatalf("breaker state = %d, want open", c.brk.state)
		}
		if _, err := c.Call(p, 2, []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-state err = %v, want ErrCircuitOpen", err)
		}
		recovBefore := reg.Counter("engine.qp_recoveries").Value()
		errored := c.qp.Errored()
		p.Sleep(1_200_000) // past the cooldown: next call is the probe
		_, err := c.Call(p, 3, []byte("probe"), CallOpts{Proto: EagerSendRecv, Busy: true})
		if !IsUnavailable(err) {
			t.Fatalf("probe err = %v, want unavailable (it was admitted, and it timed out)", err)
		}
		if errored && reg.Counter("engine.qp_recoveries").Value() <= recovBefore {
			t.Error("half-open gate did not recover the errored QP before the probe")
		}
		// Failed probe: back to open with the cooldown doubled.
		if c.brk.state != brkOpen {
			t.Errorf("post-probe breaker state = %d, want open", c.brk.state)
		}
		if c.brk.cooldown != 2*c.brk.base {
			t.Errorf("post-probe cooldown = %d, want doubled base %d", c.brk.cooldown, 2*c.brk.base)
		}
		if _, err := c.Call(p, 4, []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("after failed probe: %v, want ErrCircuitOpen", err)
		}
		env.Stop()
	})
	env.Run()
	if got := ctr(cliEng, "engine.breaker_open"); got != 2 {
		t.Errorf("engine.breaker_open = %d, want 2 (trip + failed probe)", got)
	}
}

// TestSessionOrderlyDisconnectSkipsDeadline: a server that releases its
// engine before going down (a graceful stop) has told its peers their
// connections are gone, so the first call after the restart re-dials at
// once. After a crash nothing was said: the same call waits out its whole
// deadline on the dead boot's connection before it re-dials.
func TestSessionOrderlyDisconnectSkipsDeadline(t *testing.T) {
	const deadline = 300_000
	firstCallAfterRestart := func(graceful bool) (took, failovers, replays int64) {
		env, cl, cliEng, srv := sessionCluster(113)
		env.At(500_000, func() {
			if graceful {
				srv().Close()
			}
			cl.Node(0).Crash()
		})
		env.At(700_000, cl.Node(0).Restart)
		env.Spawn("client", func(p *sim.Proc) {
			defer env.Stop()
			s := cliEng.OpenSession(cl.Node(0), "svc", false)
			opts := CallOpts{Proto: EagerSendRecv, Deadline: deadline}
			if _, err := s.Call(p, 1, []byte("before"), opts); err != nil {
				t.Errorf("first call on a lazily opened session: %v", err)
				return
			}
			p.Sleep(800_000) // past the stop and the restart
			start := p.Now()
			resp, err := s.Call(p, 2, []byte("after"), opts)
			if err != nil || string(resp) != "ECHOafter" {
				t.Errorf("post-restart call (graceful=%v): %q, %v", graceful, resp, err)
			}
			took = int64(p.Now() - start)
		})
		env.Run()
		return took, ctr(cliEng, "engine.session_failovers"), ctr(cliEng, "engine.replays")
	}
	grace, gf, gr := firstCallAfterRestart(true)
	crash, cf, cr := firstCallAfterRestart(false)
	if grace >= deadline || gf != 1 || gr != 0 {
		t.Errorf("after an orderly disconnect the call took %d ns (%d failovers, %d replays), want a plain re-dial: under the %d ns deadline, no replay", grace, gf, gr, deadline)
	}
	if crash < deadline || cf != 1 || cr != 1 {
		t.Errorf("after a crash the call took %d ns (%d failovers, %d replays), want the deadline wait and one replay", crash, cf, cr)
	}
}

// TestAcceptSurvivesHalfOpenDial: a dialer that connects and never sends
// its hello (it crashed in between) must not leave the listener deaf —
// the next dial still completes.
func TestAcceptSurvivesHalfOpenDial(t *testing.T) {
	env := sim.NewEnv(127)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 3, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	New(cl.Node(0), DefaultConfig()).Serve("svc", echoHandler)
	cliEng := New(cl.Node(2), DefaultConfig())
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		if _, err := cl.Node(1).TryConnect(p, cl.Node(0), "svc"); err != nil {
			t.Errorf("half-open connect: %v", err)
			return
		}
		c, err := cliEng.TryDial(p, cl.Node(0), "svc", false, p.Now()+sim.Time(sessionHandshakeTimeoutNs))
		if err != nil {
			t.Errorf("dial behind a half-open connection: %v", err)
			return
		}
		resp, err := c.Call(p, 1, []byte("x"), CallOpts{Proto: EagerSendRecv, Deadline: 300_000})
		if err != nil || string(resp) != "ECHOx" {
			t.Errorf("call on the new connection: %q, %v", resp, err)
		}
	})
	env.Run()
}
