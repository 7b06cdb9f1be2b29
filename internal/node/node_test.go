package node_test

import (
	"fmt"
	"testing"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// rig is a booted HatNode cluster plus a spare client machine.
type rig struct {
	env    *sim.Env
	cl     *simnet.Cluster
	roster []*simnet.Node
	hats   []*node.HatNode
	reg    *obs.Registry
	cli    *engine.Engine
}

func newRig(t *testing.T, cfg *node.Config) *rig {
	t.Helper()
	env := sim.NewEnv(cfg.Protocol.Seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: cfg.Protocol.Servers + 1, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	r := &rig{env: env, cl: cl, reg: obs.NewRegistry()}
	r.roster = make([]*simnet.Node, cfg.Protocol.Servers)
	for i := range r.roster {
		r.roster[i] = cl.Node(i)
	}
	r.hats = make([]*node.HatNode, cfg.Protocol.Servers)
	for i := range r.hats {
		h, err := node.New(cl.Node(i), r.roster, i, cfg, r.reg)
		if err != nil {
			t.Fatalf("node.New(%d): %v", i, err)
		}
		r.hats[i] = h
	}
	r.cli = engine.New(cl.Node(cfg.Protocol.Servers), engine.DefaultConfig())
	return r
}

// smallConfig is the shared test topology: 3 servers so drains keep
// quorum, light defaults elsewhere.
func smallConfig() *node.Config {
	cfg := node.DefaultConfig()
	cfg.Protocol.Servers = 3
	cfg.Protocol.Shards = 4
	return cfg
}

// TestBootTransitions: New boots through starting → ready, and the
// server that boot builds carries the config's hinted polling discipline
// and NUMA binding (unhinted: event-driven, unbound).
func TestBootTransitions(t *testing.T) {
	cases := []struct {
		name  string
		hints hints.Group
		busy  bool
		bind  bool
	}{
		{"unhinted", nil, false, false},
		{"event bound", hints.Group{"polling": "event", "numa": "bind"}, false, true},
		{"busy", hints.Group{"polling": "busy"}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Protocol.Hints.Merge(tc.hints)
			h := newRig(t, cfg).hats[0]
			if h.State() != node.StateReady {
				t.Fatalf("state after New = %v, want ready", h.State())
			}
			tr := h.Transitions()
			if len(tr) != 2 || tr[0].To != node.StateStarting || tr[1].To != node.StateReady {
				t.Errorf("transitions = %+v, want [starting ready]", tr)
			}
			if srv := h.Server(); srv.Busy != tc.busy || srv.NUMABind != tc.bind {
				t.Errorf("server busy=%v numa_bind=%v, want %v / %v", srv.Busy, srv.NUMABind, tc.busy, tc.bind)
			}
		})
	}
}

// TestDrainIdleImmediate: with zero in-flight work and no linger a
// drain quiesces instantly, and Stop releases every pinned byte.
func TestDrainIdleImmediate(t *testing.T) {
	cfg := smallConfig()
	cfg.Application.DrainLingerNs = 0
	r := newRig(t, cfg)
	h := r.hats[0]
	var rep node.DrainReport
	r.env.Spawn("ops", func(p *sim.Proc) {
		p.Sleep(100_000)
		rep = h.Drain(p, 300_000)
		h.Stop()
		r.env.Stop()
	})
	r.env.Run()
	if !rep.Completed || rep.Escalated || rep.Crashed || rep.AlreadyDrained {
		t.Fatalf("report = %+v, want Completed", rep)
	}
	if rep.ActiveAtStart != 0 || rep.Quiesced != rep.Started {
		t.Errorf("idle drain: active=%d quiesced=%d started=%d, want instant quiesce",
			rep.ActiveAtStart, rep.Quiesced, rep.Started)
	}
	if h.State() != node.StateDown {
		t.Errorf("state after Stop = %v, want down", h.State())
	}
	if got := r.reg.Counter("node.drains").Value(); got != 1 {
		t.Errorf("node.drains = %d, want 1", got)
	}
	if pinned := h.Engine().PinnedBytes(); pinned != 0 {
		t.Errorf("%d bytes still pinned after Stop", pinned)
	}
}

// TestDrainDoubleIdempotent: a second drain on a draining (or stopped)
// node is a typed no-op, not a second escalation countdown.
func TestDrainDoubleIdempotent(t *testing.T) {
	cfg := smallConfig()
	cfg.Application.DrainLingerNs = 0
	r := newRig(t, cfg)
	h := r.hats[0]
	var first, second, third node.DrainReport
	r.env.Spawn("ops", func(p *sim.Proc) {
		p.Sleep(100_000)
		first = h.Drain(p, 300_000)
		second = h.Drain(p, 300_000)
		h.Stop()
		third = h.Drain(p, 300_000)
		r.env.Stop()
	})
	r.env.Run()
	if !first.Completed {
		t.Fatalf("first drain = %+v, want Completed", first)
	}
	if !second.AlreadyDrained || !third.AlreadyDrained {
		t.Errorf("repeat drains = %+v / %+v, want AlreadyDrained", second, third)
	}
	if got := r.reg.Counter("node.drains").Value(); got != 1 {
		t.Errorf("node.drains = %d, want 1 (idempotent)", got)
	}
}

// TestDrainDeadlineEscalation: a drain that cannot quiesce inside its
// deadline reports Escalated (the caller then stops anyway), in order:
// fence up → deadline expiry → escalation counter, never a completed
// drain.
func TestDrainDeadlineEscalation(t *testing.T) {
	cfg := smallConfig()
	cfg.Application.Workload = node.WorkloadConfig{}
	r := newRig(t, cfg)
	h := r.hats[0]
	// Hammer every shard with parallel writers so the server always has
	// work in flight or queued when the drain starts.
	for w := 0; w < 12; w++ {
		w := w
		r.env.Spawn(fmt.Sprintf("hammer-%d", w), func(p *sim.Proc) {
			c := cluster.NewClient(r.cli, r.roster, h.Config().ClusterConfig())
			for i := 0; ; i++ {
				_ = c.Put(p, fmt.Sprintf("h%02d-%04d", w, i), []byte("x")) //nolint:errcheck
			}
		})
	}
	var rep node.DrainReport
	r.env.Spawn("ops", func(p *sim.Proc) {
		for h.Server().Active() == 0 {
			p.Sleep(5_000)
		}
		rep = h.Drain(p, 1) // 1ns deadline: quiescing in time is impossible
		h.Stop()
		r.env.Stop()
	})
	r.env.Run()
	if !rep.Escalated || rep.Completed {
		t.Fatalf("report = %+v, want Escalated", rep)
	}
	if rep.ActiveAtStart == 0 {
		t.Error("escalation test raced: no in-flight work at drain start")
	}
	if got := r.reg.Counter("node.drain_escalations").Value(); got != 1 {
		t.Errorf("node.drain_escalations = %d, want 1", got)
	}
	if got := r.reg.Counter("node.drains").Value(); got != 0 {
		t.Errorf("node.drains = %d, want 0 — an escalated drain is not a completed one", got)
	}
}

// TestDrainCrashRace: a crash landing mid-linger turns the drain report
// into Crashed — no completed-drain accounting, state machine at down.
func TestDrainCrashRace(t *testing.T) {
	cfg := smallConfig()
	cfg.Application.DrainLingerNs = 600_000
	r := newRig(t, cfg)
	h := r.hats[0]
	var rep node.DrainReport
	r.env.Spawn("ops", func(p *sim.Proc) {
		p.Sleep(100_000)
		rep = h.Drain(p, 300_000) // quiesces instantly, lingers to 700us
		r.env.Stop()
	})
	r.env.At(300_000, r.cl.Node(0).Crash)
	r.env.Run()
	if !rep.Crashed || rep.Completed || rep.Escalated {
		t.Fatalf("report = %+v, want Crashed", rep)
	}
	if h.State() != node.StateDown {
		t.Errorf("state = %v, want down (crash hook ran)", h.State())
	}
	if got := r.reg.Counter("node.drains").Value(); got != 0 {
		t.Errorf("node.drains = %d, want 0", got)
	}
}
