package chaos

import (
	"fmt"
	"strings"

	"hatrpc/internal/cluster"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// RollingConfig parameterizes a rolling-restart soak: an N-node HatNode
// cluster (internal/node) restarts nodes one at a time — drain → stop →
// reboot → rejoin → resync — while retry-until-acked workers run.
// Rounds 0 degenerates to a plain soak with no restart operator — the
// baseline for byte-identity checks and cmd/hatnode's non-rolling run.
type RollingConfig struct {
	Node   *node.Config // nil = node.DefaultConfig()
	Rounds int          // full passes over all servers; 0 = no restarts
	// Graceful selects drain-then-stop; false hard-kills each node (the
	// PR 8 failover path) for the contrast benchmark.
	Graceful        bool
	DrainDeadlineNs int64 // 0 = Node.Application.DrainDeadlineNs
	RestartDelayNs  int64 // down time before reboot (default 400us)
	StaggerNs       int64 // settle time after each reboot (default 1.6ms)
	WarmupNs        int64 // before the first stop (default 1ms)
	Reg             *obs.Registry
}

// RestartCycle is one node's stop/reboot cycle and its client-visible
// cost.
type RestartCycle struct {
	Node, Round int
	StopAt      sim.Time // drain (or kill) initiated
	DownAt      sim.Time // machine actually down
	ReadyAt     sim.Time // next StateReady after the reboot (0 if none)
	Escalated   bool     // drain deadline expired; stop proceeded with work in flight
	Crashed     bool     // a CrashPlan crash raced the drain
	ErrWindowNs int64    // summed client stall excess for puts started in this cycle
	RecoveryNs  int64    // DownAt → first ack anywhere (0 if none)
}

// rollingStallNs is the per-put latency considered clean: only the
// excess above it counts toward a cycle's error-visible window. Healthy
// puts land in tens of microseconds; anything past this was visibly
// disturbed by the restart (deadline waits, breaker cooldowns, routing
// refreshes).
const rollingStallNs = 100_000

// RollingResult is the audited outcome: the ClusterResult loss audit
// plus the per-cycle restart economics.
type RollingResult struct {
	ClusterResult
	Cycles []RestartCycle

	Graceful    bool
	StalledPuts int   // acked puts that exceeded rollingStallNs
	ErrWindowNs int64 // summed stall excess across all cycles

	// Lifecycle totals from the node layer.
	Drains          int64
	Escalations     int64
	DrainedRequests int64 // requests fenced with the typed draining reply
}

// Availability is acked puts over all put outcomes (acked + failed).
// Each failed put already represents a full client-side retry budget
// exhausted, so this is a strict client-visible availability measure.
func (r *RollingResult) Availability() float64 {
	total := float64(r.Acked) + float64(r.FailedPuts)
	if total == 0 {
		return 1
	}
	return float64(r.Acked) / total
}

// RollingSoak runs one rolling-restart soak to completion and audits
// it: every acked write must survive at its shard's authority replica,
// and the per-cycle error-visible windows quantify what clients saw.
func RollingSoak(rc RollingConfig) (*RollingResult, error) {
	nc := rc.Node
	if nc == nil {
		nc = node.DefaultConfig()
	}
	servers := nc.Protocol.Servers
	if rc.RestartDelayNs <= 0 {
		rc.RestartDelayNs = 400_000
	}
	if rc.StaggerNs <= 0 {
		rc.StaggerNs = 1_600_000
	}
	if rc.WarmupNs <= 0 {
		rc.WarmupNs = 1_000_000
	}
	drainDL := rc.DrainDeadlineNs
	if drainDL <= 0 {
		drainDL = nc.Application.DrainDeadlineNs
	}
	reg := rc.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}

	res := &RollingResult{Graceful: rc.Graceful}
	hats := make([]*node.HatNode, servers)
	ccfg, wl, crash := nc.ClusterConfig(), nc.Application.Workload, nc.Protocol.Crash
	cs := soakSpec{
		seed: nc.Protocol.Seed, servers: servers, ccfg: ccfg,
		crash: simnet.CrashConfig{
			Nodes: ccfg.NodeIDs, MeanUptimeNs: crash.MeanUptimeNs, MinUptimeNs: crash.MinUptimeNs,
			RestartDelayNs: crash.RestartDelayNs, RestartJitterNs: crash.RestartJitterNs,
			HorizonNs: crash.HorizonNs,
		},
		workers: wl.Workers, writes: wl.Writes, paceNs: wl.PaceNs,
		// Sized from the workload so legitimate long runs are never cut short.
		watchdogNs: 4 * (rc.WarmupNs +
			int64(rc.Rounds)*int64(servers)*(drainDL+rc.RestartDelayNs+rc.StaggerNs) +
			int64(wl.Writes)*(wl.PaceNs+1_000_000)),
		boot: func(i int, sn *simnet.Node, roster []*simnet.Node) (*hatkv.Store, func() cluster.NodeStats, error) {
			h, err := node.New(sn, roster, i, nc, reg)
			if err != nil {
				return nil, nil, err
			}
			hats[i] = h
			return h.Store(), h.Stats, nil
		},
	}
	if rc.Rounds > 0 {
		cs.operate = func(p *sim.Proc, cl *simnet.Cluster) {
			p.Sleep(sim.Duration(rc.WarmupNs))
			for round := 0; round < rc.Rounds; round++ {
				for i := 0; i < servers; i++ {
					cyc := RestartCycle{Node: i, Round: round, StopAt: p.Now()}
					if rc.Graceful {
						rep := hats[i].Drain(p, sim.Duration(drainDL))
						cyc.Escalated = rep.Escalated
						cyc.Crashed = rep.Crashed
						hats[i].Stop()
					} else {
						cl.Node(i).Crash()
					}
					cyc.DownAt = p.Now()
					res.Cycles = append(res.Cycles, cyc)
					p.Sleep(sim.Duration(rc.RestartDelayNs))
					cl.Node(i).Restart()
					p.Sleep(sim.Duration(rc.StaggerNs))
				}
			}
		}
	}
	if err := cs.soak(&res.ClusterResult); err != nil {
		return nil, err
	}

	for _, h := range hats {
		res.DrainedRequests += h.Drained()
	}
	res.Drains = reg.Counter("node.drains").Value()
	res.Escalations = reg.Counter("node.drain_escalations").Value()
	fillCycleEconomics(res, hats)
	return res, nil
}

// fillCycleEconomics derives per-cycle ReadyAt, RecoveryNs, and
// ErrWindowNs from the node transition logs and the put samples.
func fillCycleEconomics(res *RollingResult, hats []*node.HatNode) {
	for ci := range res.Cycles {
		cyc := &res.Cycles[ci]
		for _, tr := range hats[cyc.Node].Transitions() {
			if tr.To == node.StateReady && tr.At > cyc.StopAt {
				cyc.ReadyAt = tr.At
				break
			}
		}
		for _, w := range res.Writes {
			if w.AckAt > cyc.DownAt {
				cyc.RecoveryNs = int64(w.AckAt - cyc.DownAt)
				break
			}
		}
		end := sim.Time(1) << 62
		if ci+1 < len(res.Cycles) {
			end = res.Cycles[ci+1].StopAt
		}
		for _, w := range res.Writes {
			if w.StartAt < cyc.StopAt || w.StartAt >= end {
				continue
			}
			if lat := int64(w.AckAt - w.StartAt); lat > rollingStallNs {
				cyc.ErrWindowNs += lat - rollingStallNs
			}
		}
		res.ErrWindowNs += cyc.ErrWindowNs
	}
	for _, w := range res.Writes {
		if int64(w.AckAt-w.StartAt) > rollingStallNs {
			res.StalledPuts++
		}
	}
}

// Report renders the audited outcome deterministically — two same-seed
// soaks must produce byte-identical reports, cycle timings and write
// digest included.
func (r *RollingResult) Report() string {
	var b strings.Builder
	mode := "hard-kill"
	if r.Graceful {
		mode = "graceful"
	}
	fmt.Fprintf(&b, "rolling soak (%s): acked=%d lost=%d incomplete=%d availability=%.4f\n",
		mode, r.Acked, r.Lost, r.Incomplete, r.Availability())
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_puts=%d stalled_puts=%d err_window=%dns\n",
		r.GetChecks, r.GetMismatches, r.FailedPuts, r.StalledPuts, r.ErrWindowNs)
	fmt.Fprintf(&b, "lifecycle: drains=%d escalations=%d drained_reqs=%d\n",
		r.Drains, r.Escalations, r.DrainedRequests)
	fmt.Fprintf(&b, "cluster: promotions=%d candidacies=%d resyncs=%d stale=%d fenced=%d refreshes=%d\n",
		r.Promotions, r.Candidacies, r.Resyncs, r.StaleWrites, r.FencedWrites, r.Refreshes)
	fmt.Fprintf(&b, "cycles: %d (crashes seen: %d)\n", len(r.Cycles), len(r.Crashes))
	for _, c := range r.Cycles {
		fmt.Fprintf(&b, "  node=%d round=%d stop=%d down=%d ready=%d esc=%v crash=%v errw=%d recov=%d\n",
			c.Node, c.Round, c.StopAt, c.DownAt, c.ReadyAt, c.Escalated, c.Crashed, c.ErrWindowNs, c.RecoveryNs)
	}
	r.reportTail(&b)
	return b.String()
}
