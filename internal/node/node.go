package node

import (
	"fmt"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// State is the node lifecycle state machine (DESIGN.md §17):
// starting → ready → draining → down, with down → starting on reboot.
type State uint8

const (
	StateStarting State = iota
	StateReady
	StateDraining
	StateDown
)

func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Transition is one recorded lifecycle edge.
type Transition struct {
	To State
	At sim.Time
}

// DrainReport is the outcome of one graceful drain.
type DrainReport struct {
	Started       sim.Time
	Quiesced      sim.Time // when in-flight work hit zero (Completed only)
	ActiveAtStart int
	// Exactly one of these is set.
	Completed      bool // fence up, in-flight drained inside the deadline
	Escalated      bool // deadline expired with work still in flight
	Crashed        bool // the node crashed (CrashPlan) mid-drain
	AlreadyDrained bool // drain requested outside StateReady (idempotent no-op)
}

// HatNode is one long-running production node: a simnet machine hosting
// the hatkv/cluster service behind an engine server, plus the lifecycle
// layer — boot, graceful drain, stop. The HatNode (and its durable
// store) survive crashes and restarts; the engine, cluster service, and
// server are rebuilt per boot.
type HatNode struct {
	cfg    *Config
	sn     *simnet.Node
	env    *sim.Env
	roster []*simnet.Node
	self   int
	reg    *obs.Registry
	store  *hatkv.Store

	eng *engine.Engine
	cn  *cluster.Node
	srv *engine.Server

	// Every boot's service and server, kept so lifecycle stats survive
	// the per-boot rebuild (a restarted node would otherwise forget the
	// promotions and fenced requests of its previous lives).
	boots []*cluster.Node
	srvs  []*engine.Server

	state State
	log   []Transition

	drains      *obs.Counter
	escalations *obs.Counter
}

// EngineConfig is the engine sizing of a HatKV fleet, servers and the
// clients that talk to them alike: the defaults with the circuit breaker
// armed, so four failures in a row steer a caller off a dead or draining
// peer for 500 µs instead of spending a deadline on every call to it.
func EngineConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.BreakerThreshold = 4
	ecfg.BreakerCooldown = 500_000
	return ecfg
}

// New builds the lifecycle wrapper for one simnet node and boots it.
// The durable store is created once here and carried across boots; the
// crash hook (self-re-arming) marks the node down, and the restart hook
// reboots the full service stack. reg may be nil.
func New(sn *simnet.Node, roster []*simnet.Node, self int, cfg *Config, reg *obs.Registry) (*HatNode, error) {
	store, err := hatkv.NewStore(sn, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", self, err)
	}
	if err := store.Env().SetSync(cfg.Protocol.SyncMode); err != nil {
		return nil, fmt.Errorf("node %d: %w", self, err)
	}
	h := &HatNode{
		cfg:    cfg,
		sn:     sn,
		env:    sn.Cluster().Env(),
		roster: roster,
		self:   self,
		reg:    reg,
		store:  store,
		state:  StateDown, // pre-boot; Boot moves through starting → ready
	}
	h.drains = reg.Counter("node.drains")
	h.escalations = reg.Counter("node.drain_escalations")
	// Registered after the store's own rollback hook, so the durable
	// state has rolled back by the time the lifecycle observes the crash.
	var onCrash func()
	onCrash = func() {
		h.setState(StateDown)
		sn.OnCrash(onCrash)
	}
	sn.OnCrash(onCrash)
	sn.SetRestart(func(p *sim.Proc) { h.Boot() })
	h.Boot()
	return h, nil
}

// Boot builds one boot's service stack: engine (protocol section's
// transport tuning), cluster service, and the port server, configured
// from the protocol section before any request can arrive.
func (h *HatNode) Boot() {
	h.setState(StateStarting)
	ecfg := EngineConfig()
	if c := h.cfg.Protocol.Credits; c > 0 {
		ecfg.FlowCredits = c
	}
	h.eng = engine.New(h.sn, ecfg)
	h.eng.SetObs(h.reg)
	h.cn = cluster.NewUnservedNode(h.eng, h.store, h.roster, h.self, h.cfg.ClusterConfig())
	h.cn.SetObs(h.reg)
	h.srv = h.eng.Serve(cluster.Port, h.cn.Handle)
	h.boots = append(h.boots, h.cn)
	h.srvs = append(h.srvs, h.srv)
	h.applyHints(h.cfg.Protocol.Hints)
	h.srv.AdmitLimit = h.cfg.Protocol.AdmitLimit
	h.srv.Admit = h.cfg.Protocol.AdmitPolicy
	h.setState(StateReady)
}

// Drain performs a graceful drain: fence new requests with the typed
// kDrain rejection, let in-flight calls and replication complete, and
// report how it ended. The caller escalates to Stop (the crash path) on
// Escalated; a Completed drain makes Stop a clean quiesce→release. Must
// run on an env-owned process.
func (h *HatNode) Drain(p *sim.Proc, deadline sim.Duration) DrainReport {
	rep := DrainReport{Started: p.Now()}
	if h.state != StateReady {
		rep.AlreadyDrained = true
		return rep
	}
	h.setState(StateDraining)
	rep.ActiveAtStart = h.srv.Active()
	var until sim.Time
	if deadline > 0 {
		until = p.Now() + sim.Time(deadline)
	}
	epoch0 := h.sn.Epoch()
	ok := h.srv.Drain(p, until)
	if ok && !h.sn.Down() {
		rep.Quiesced = p.Now()
		// Announce linger: hold the fence with the node still alive so
		// peer monitors see the typed rejections, run their candidacies,
		// and promote this node's shards away BEFORE Stop — the failover
		// that a hard kill can only do post-mortem.
		if linger := h.cfg.Application.DrainLingerNs; linger > 0 {
			p.Sleep(sim.Duration(linger))
		}
	}
	switch {
	case h.sn.Down() || h.sn.Epoch() != epoch0:
		// A CrashPlan crash raced the drain (possibly rebooting already);
		// the crash hook moved the state machine and rolled the store back.
		rep.Crashed = true
		rep.Quiesced = 0
	case !ok:
		rep.Escalated = true
		h.escalations.Inc()
	default:
		rep.Completed = true
		h.drains.Inc()
	}
	return rep
}

// Stats sums the cluster service's lifecycle counters across every
// boot of this node.
func (h *HatNode) Stats() cluster.NodeStats {
	var s cluster.NodeStats
	for _, n := range h.boots {
		s.Add(n.Stats())
	}
	return s
}

// Drained sums the requests fenced with the typed draining rejection
// across every boot of this node.
func (h *HatNode) Drained() int64 {
	var n int64
	for _, s := range h.srvs {
		n += s.Drained
	}
	return n
}

// Stop releases the boot's resources and takes the machine down: close
// the replication sessions (peer-sorted), release every QP/MR the
// engine pinned, and crash the simnet node (killing dispatchers and
// firing crash hooks). The three run in one synchronous no-park stretch
// — nothing can arrive between the engine closing and the NIC dying, so
// no dispatcher ever wakes on released memory. Must be called from an
// env-owned process or callback, never from a process the node owns.
func (h *HatNode) Stop() {
	if h.sn.Down() {
		return
	}
	h.cn.CloseSessions()
	h.eng.Close()
	h.sn.Crash()
}

// applyHints resolves the node hint group onto the boot's fresh server:
// busy polling (event-driven unless hinted busy) and NUMA binding of the
// dispatchers it will spawn.
func (h *HatNode) applyHints(g hints.Group) {
	r := hints.TypeCheck(g)
	h.srv.Busy = r.Polling == hints.PollBusy
	h.srv.NUMABind = r.NUMABind
}

func (h *HatNode) setState(s State) {
	if h.state == s {
		return
	}
	h.state = s
	h.log = append(h.log, Transition{To: s, At: h.env.Now()})
}

// State returns the current lifecycle state.
func (h *HatNode) State() State { return h.state }

// Transitions returns the recorded lifecycle edges across all boots.
func (h *HatNode) Transitions() []Transition { return h.log }

// Config returns the active config.
func (h *HatNode) Config() *Config { return h.cfg }

// Engine returns the current boot's engine.
func (h *HatNode) Engine() *engine.Engine { return h.eng }

// Server returns the current boot's port server.
func (h *HatNode) Server() *engine.Server { return h.srv }

// Store returns the durable store (survives boots).
func (h *HatNode) Store() *hatkv.Store { return h.store }

// Exposition renders the attached registry's metrics ("" when detached).
func (h *HatNode) Exposition() string { return h.reg.Exposition() }
