package simnet

import (
	"testing"

	"hatrpc/internal/sim"
)

func cluster(seed int64) (*sim.Env, *Cluster) {
	env := sim.NewEnv(seed)
	return env, NewCluster(env, DefaultConfig())
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 10 || cfg.Cores != 28 || cfg.LinkGbps != 100 || cfg.Sockets != 2 {
		t.Fatalf("default config %+v does not match §5.1", cfg)
	}
}

func TestBandwidthGateSerialization(t *testing.T) {
	env, cl := cluster(1)
	n := cl.Node(0)
	// 12.5 KB at 12.5 B/ns = 1000ns.
	var done sim.Time
	env.Spawn("tx", func(p *sim.Proc) {
		n.TX.Transmit(p, 12500)
		done = p.Now()
	})
	env.Run()
	if done != 1000 {
		t.Fatalf("transmit took %d, want 1000", done)
	}
}

func TestBandwidthGateFIFOQueueing(t *testing.T) {
	env, cl := cluster(2)
	n := cl.Node(0)
	var first, second sim.Time
	env.Spawn("a", func(p *sim.Proc) {
		n.TX.Transmit(p, 12500)
		first = p.Now()
	})
	env.Spawn("b", func(p *sim.Proc) {
		n.TX.Transmit(p, 12500)
		second = p.Now()
	})
	env.Run()
	if first != 1000 || second != 2000 {
		t.Fatalf("FIFO gate: first %d second %d, want 1000/2000", first, second)
	}
}

func TestBandwidthGateReserve(t *testing.T) {
	env, cl := cluster(3)
	g := cl.Node(0).RX
	t1 := g.Reserve(0, 12500)
	t2 := g.Reserve(0, 12500)
	if t1 != 1000 || t2 != 2000 {
		t.Fatalf("Reserve = %d, %d", t1, t2)
	}
	if g.BusyNs() != 2000 {
		t.Fatalf("BusyNs = %d", g.BusyNs())
	}
	_ = env
}

// TestBandwidthGateStream: a transfer booked once its last packet has
// come (Stream from its first packet's time) is served from its first
// packet on. It is credited the time the gate stood idle meanwhile, so a
// short transfer booked in that stretch delays it by its own length,
// not by the whole stretch; it is never done before its tail; and on a
// busy gate it queues as Reserve would.
func TestBandwidthGateStream(t *testing.T) {
	g := NewBandwidthGate(sim.NewEnv(1), 1) // 1 B/ns: sizes read as ns
	if start, done := g.Stream(100, 1000, 100); start != 100 || done != 1100 {
		t.Fatalf("idle gate: served [%d, %d], want [100, 1100]", start, done)
	}
	if start, done := g.Stream(1500, 200, 1500); start != 1500 || done != 1700 {
		t.Fatalf("idle again: served [%d, %d], want [1500, 1700]", start, done)
	}
	// Streaming since 1200 (while the gate idled until 1500), booked at
	// its last packet: 300 ns of it went through in the idle stretch, the
	// other 500 queue behind the 200 booked meanwhile.
	if start, done := g.Stream(1200, 800, 2000); start != 1200 || done != 2200 {
		t.Fatalf("credited stretch: served [%d, %d], want [1200, 2200]", start, done)
	}
	// A transfer that fits an idle stretch is served inside it, but is
	// never done before its tail.
	g = NewBandwidthGate(sim.NewEnv(1), 1)
	g.Stream(1000, 100, 1000)
	if start, done := g.Stream(0, 50, 60); start != 0 || done != 60 {
		t.Fatalf("inside the stretch: served [%d, %d], want [0, 60]", start, done)
	}
	if _, done := g.Stream(100, 50, 400); done != 400 {
		t.Fatalf("tail: done %d, want 400", done)
	}
	// What was booked up to a tail is not idle: a later transfer from
	// before it starts after it, fills the stretch left and queues behind
	// the first transfer with the rest.
	if start, done := g.Stream(300, 700, 900); start != 400 || done != 1200 {
		t.Fatalf("behind the booked stretch: served [%d, %d], want [400, 1200]", start, done)
	}
	// Booked at its first packet, a transfer queues exactly as Reserve.
	a, b := NewBandwidthGate(sim.NewEnv(1), 1), NewBandwidthGate(sim.NewEnv(1), 1)
	for _, now := range []sim.Time{0, 10, 500, 505, 2000} {
		_, got := a.Stream(now, 300, now)
		if want := b.Reserve(now, 300); got != want {
			t.Fatalf("Stream(%d) done %d, Reserve %d", now, got, want)
		}
	}
}

func TestOOBConnectAndExchange(t *testing.T) {
	env, cl := cluster(4)
	var got string
	env.Spawn("server", func(p *sim.Proc) {
		ln := cl.Node(0).Listen("ctrl")
		ep := ln.Accept(p)
		got = ep.Recv(p).(string)
		ep.Send(p, "ack:"+got, 16)
	})
	var reply string
	env.Spawn("client", func(p *sim.Proc) {
		ep := cl.Node(1).Connect(p, cl.Node(0), "ctrl")
		ep.Send(p, "hello", 5)
		reply = ep.Recv(p).(string)
	})
	env.Run()
	if got != "hello" || reply != "ack:hello" {
		t.Fatalf("exchange: got %q reply %q", got, reply)
	}
	// OOB must be slow (kernel TCP path): tens of microseconds.
	if env.Now() < 50_000 {
		t.Fatalf("OOB exchange completed in %dns; too fast for the control path", env.Now())
	}
}

func TestConnectUnknownPortPanics(t *testing.T) {
	env, cl := cluster(5)
	env.Spawn("client", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("connect to missing listener did not panic")
			}
			env.Stop()
		}()
		cl.Node(1).Connect(p, cl.Node(0), "nope")
	})
	env.Run()
}

func TestNUMAWorkPenalty(t *testing.T) {
	_, cl := cluster(6)
	n := cl.Node(0)
	if n.NUMAWork(1000, true) != 1000 {
		t.Fatal("bound work must be unscaled")
	}
	if n.NUMAWork(1000, false) != 1250 {
		t.Fatalf("unbound work = %d, want 1250 (1.25x)", n.NUMAWork(1000, false))
	}
	if n.LocalCores() != 14 {
		t.Fatalf("LocalCores = %d, want 14 (28 cores / 2 sockets)", n.LocalCores())
	}
}

func TestSingleSocketNoPenalty(t *testing.T) {
	env := sim.NewEnv(7)
	cfg := DefaultConfig()
	cfg.Sockets = 1
	cl := NewCluster(env, cfg)
	if cl.Node(0).NUMAWork(1000, false) != 1000 {
		t.Fatal("single-socket node must not pay NUMA penalty")
	}
}

func TestClusterAccessors(t *testing.T) {
	env, cl := cluster(8)
	if cl.Nodes() != 10 || cl.Node(3).ID() != 3 {
		t.Fatal("node accessors")
	}
	if cl.Env() != env {
		t.Fatal("env accessor")
	}
	if cl.PropDelay() != 600 {
		t.Fatalf("prop delay = %d", cl.PropDelay())
	}
	if cl.Node(2).Cluster() != cl {
		t.Fatal("cluster backref")
	}
}
