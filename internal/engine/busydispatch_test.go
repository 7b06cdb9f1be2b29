package engine

import (
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// callFn is the shape Conn.Call and Session.Call share.
type callFn func(*sim.Proc, uint32, []byte, CallOpts) ([]byte, error)

// warmCallNs times the second of two busy-polled 512 B Direct-WriteIMM
// calls (the first dials and warms) over what dial returns, against a
// server that polls as srvBusy says.
func warmCallNs(t *testing.T, srvBusy bool, dial func(*sim.Proc, *Engine, *simnet.Node) callFn) (ns int64, srv *Server) {
	t.Helper()
	env := sim.NewEnv(131)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srv = New(cl.Node(0), DefaultConfig()).Serve("svc", echoHandler)
	srv.Busy = srvBusy
	cli := New(cl.Node(1), DefaultConfig())
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		call := dial(p, cli, cl.Node(0))
		req := make([]byte, 512)
		opts := CallOpts{Proto: DirectWriteIMM, Busy: true, Deadline: DefaultSessionCallDeadline}
		for i := 0; i < 2; i++ {
			start := p.Now()
			if _, err := call(p, uint32(i), req, opts); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			ns = int64(p.Now() - start)
		}
	})
	env.Run()
	return ns, srv
}

// TestDeclaredBusySessionIsBusyDispatched: a session that declares busy
// polling is busy-dispatched by a server that does not poll busily
// itself — its call costs what it costs against a busy server, without
// the server-side interrupt wake. A raw Dial declares nothing and still
// pays the wake.
func TestDeclaredBusySessionIsBusyDispatched(t *testing.T) {
	rawDial := func(p *sim.Proc, cli *Engine, target *simnet.Node) callFn {
		return cli.Dial(p, target, "svc").Call
	}
	busySession := func(_ *sim.Proc, cli *Engine, target *simnet.Node) callFn {
		return cli.OpenSession(target, "svc", true).Call
	}
	busyServer, _ := warmCallNs(t, true, rawDial)
	declared, srv := warmCallNs(t, false, busySession)
	raw, _ := warmCallNs(t, false, rawDial)

	if !srv.Conns()[0].peerBusy {
		t.Error("the declaring session's server connection holds no busy grant")
	}
	if declared != busyServer {
		t.Errorf("declared-busy session on an event server: %d ns, want the busy server's %d ns", declared, busyServer)
	}
	cm := srv.eng.dev.CostModel()
	if wake := cm.InterruptWakeNs - int64(cm.BusyDetectNs(1)); raw-declared != wake {
		t.Errorf("raw Dial: %d ns, declared session %d ns: differ by %d, want the %d ns interrupt wake less the busy detect", raw, declared, raw-declared, wake)
	}
}

// TestBusyGrantsCappedAtCores: a 2-core server grants busy dispatch to
// two declaring sessions and event-dispatches the third. Closing one of
// the first two hands its grant back — its parked dispatcher stops
// spinning — and the next declaring dial is granted again.
func TestBusyGrantsCappedAtCores(t *testing.T) {
	env := sim.NewEnv(137)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 2, Sockets: 1, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srvEng := New(cl.Node(0), DefaultConfig())
	observe(srvEng)
	srv := srvEng.Serve("svc", echoHandler)
	cli := New(cl.Node(1), DefaultConfig())
	cpu := cl.Node(0).CPU
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		var sess []*Session
		dial := func() {
			s := cli.OpenSession(cl.Node(0), "svc", true)
			if _, err := s.Call(p, 1, []byte("x"), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil {
				t.Errorf("call on session %d: %v", len(sess), err)
			}
			sess = append(sess, s)
		}
		check := func(when string, granted []bool, grants, refused int64) {
			t.Helper()
			spinning := 0
			for i, c := range srv.Conns() {
				if c.peerBusy != granted[i] {
					t.Errorf("%s: connection %d busy-dispatched = %v, want %v", when, i, c.peerBusy, granted[i])
				}
				if c.peerBusy {
					spinning++
				}
			}
			if g, r := ctr(srvEng, "engine.busy_dispatch"), ctr(srvEng, "engine.busy_dispatch_refused"); g != grants || r != refused {
				t.Errorf("%s: busy_dispatch = %d, busy_dispatch_refused = %d, want %d and %d", when, g, r, grants, refused)
			}
			if got := cpu.Runnable(); got != spinning {
				t.Errorf("%s: %d runnable on the server's cores, want the %d parked busy dispatchers", when, got, spinning)
			}
		}
		for i := 0; i < 3; i++ {
			dial()
		}
		check("three sessions", []bool{true, true, false}, 2, 1)
		sess[0].Close()
		check("first closed", []bool{false, true, false}, 2, 1)
		dial()
		check("fourth dialed", []bool{false, true, false, true}, 3, 1)
	})
	env.Run()
}
