package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// RollingConfig parameterizes the cluster soak: an N-node HatNode
// cluster (internal/node) under retry-until-acked workers, the node
// config's seeded crash plan and an optional partition/fault plan, with
// nodes restarted one at a time — drain → stop → reboot → rejoin →
// resync — for Rounds passes. Rounds 0 runs no restart operator: the
// crash-and-partition soak, and cmd/hatnode's non-rolling run.
type RollingConfig struct {
	Node   *node.Config // nil = node.DefaultConfig()
	Rounds int          // full passes over all servers; 0 = no restarts
	// Graceful selects drain-then-stop; false hard-kills each node (the
	// post-mortem failover path) for the contrast benchmark.
	Graceful        bool
	DrainDeadlineNs int64 // 0 = Node.Application.DrainDeadlineNs
	RestartDelayNs  int64 // down time before reboot (default 400us)
	StaggerNs       int64 // settle time after each reboot (default 1.6ms)
	WarmupNs        int64 // before the first stop (default 1ms)
	// Faults is the partition/fault plan over the fabric (node ids are
	// server indexes 0..Servers-1; the client is node Servers).
	Faults simnet.FaultConfig
	Reg    *obs.Registry
}

// NodeCrash is one executed server crash.
type NodeCrash struct {
	Node int
	At   sim.Time
}

// ClusterWrite is one acknowledged cluster write: when it was first
// attempted and when its ack reached the worker. Lost is filled by the
// audit against the shard's authority replica.
type ClusterWrite struct {
	Key     string
	StartAt sim.Time
	AckAt   sim.Time
	Lost    bool
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

// RollingResult is the audited outcome: every acked write checked
// against its shard's authority replica, plus the per-cycle restart
// economics.
type RollingResult struct {
	Crashes []NodeCrash
	Writes  []ClusterWrite
	Cycles  []RestartCycle

	Acked      int
	Lost       int // acked writes absent from their shard's authority replica
	Incomplete int // workers still unfinished when the watchdog fired

	GetChecks     int
	GetMismatches int // read-backs returning wrong bytes — always a bug
	FailedPuts    int64

	Graceful    bool
	StalledPuts int   // acked puts that exceeded rollingStallNs
	ErrWindowNs int64 // summed stall excess across all cycles

	// Cluster lifecycle, summed over every boot of every server.
	cluster.NodeStats
	// Shard-map refreshes, summed over the workers' clients.
	Refreshes int64

	// Lifecycle totals from the node layer.
	Drains          int64
	Escalations     int64
	DrainedRequests int64 // requests fenced with the typed draining reply

	// Per-shard final durable position at the authority replica.
	ShardEpochs []uint64
	ShardSeqs   []uint64
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

// RollingSoak runs one cluster soak to completion and audits it: every
// server boots through node.New, every worker write is retried until
// acked, and at the end every acked write must be present at its
// shard's authority replica — the replica with the maximum durable
// (epoch, seq). Under SyncFull and RF ≥ 2 the epoch-fencing argument
// makes any loss a protocol bug, crashes, partitions and restarts
// notwithstanding; the per-cycle error-visible windows quantify what
// clients saw.
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
	ccfg, wl, crash := nc.ClusterConfig(), nc.Application.Workload, nc.Protocol.Crash

	env := sim.NewEnv(nc.Protocol.Seed)
	fabric := simnet.DefaultConfig()
	fabric.Nodes = servers + 1
	cl := simnet.NewCluster(env, fabric)
	roster := make([]*simnet.Node, servers)
	for i := range roster {
		roster[i] = cl.Node(i)
	}
	res := &RollingResult{Graceful: rc.Graceful}
	hats := make([]*node.HatNode, servers)
	for i, sn := range roster {
		h, err := node.New(sn, roster, i, nc, reg)
		if err != nil {
			return nil, err
		}
		hats[i] = h
		// Crash log, registered after the node so its rollback and
		// lifecycle hooks run first; re-arms itself across boots.
		var logCrash func()
		logCrash = func() {
			res.Crashes = append(res.Crashes, NodeCrash{Node: i, At: env.Now()})
			sn.OnCrash(logCrash)
		}
		sn.OnCrash(logCrash)
	}
	cl.InstallCrashes(simnet.CrashConfig{
		Nodes: ccfg.NodeIDs, MeanUptimeNs: crash.MeanUptimeNs, MinUptimeNs: crash.MinUptimeNs,
		RestartDelayNs: crash.RestartDelayNs, RestartJitterNs: crash.RestartJitterNs,
		HorizonNs: crash.HorizonNs,
	})
	cl.InstallFaults(rc.Faults)

	cliEng := engine.New(cl.Node(servers), node.EngineConfig())
	var clients []*cluster.Client
	workersDone, opsDone := 0, rc.Rounds == 0
	maybeStop := func() {
		if opsDone && workersDone == wl.Workers {
			env.Stop()
		}
	}
	for w := 0; w < wl.Workers; w++ {
		env.Spawn(fmt.Sprintf("soak-worker-%d", w), func(p *sim.Proc) {
			c := cluster.NewClient(cliEng, roster, ccfg)
			clients = append(clients, c)
			for i := 0; i < wl.Writes; i++ {
				key := fmt.Sprintf("w%02d-%05d", w, i)
				start := p.Now()
				for {
					if err := c.Put(p, key, []byte(key)); err == nil {
						res.Writes = append(res.Writes, ClusterWrite{Key: key, StartAt: start, AckAt: p.Now()})
						break
					}
					res.FailedPuts++
					p.Sleep(250_000) // outage in progress; back off and re-ack
				}
				if i%5 == 4 {
					// Read-back: an answer must be the exact bytes written
					// (acked writes never roll back under quorum replication).
					res.GetChecks++
					v, err := c.Get(p, key)
					if err == nil && !bytes.Equal(v, []byte(key)) {
						res.GetMismatches++
					}
				}
				if wl.PaceNs > 0 {
					p.Sleep(sim.Duration(wl.PaceNs))
				}
			}
			workersDone++
			maybeStop()
		})
	}
	if rc.Rounds > 0 {
		env.Spawn("soak-ops", func(p *sim.Proc) {
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
			opsDone = true
			maybeStop()
		})
	}
	// Watchdog: the soak stops even if a worker wedges, and the audit
	// reports the unfinished workers. Sized from the workload so
	// legitimate long runs are never cut short.
	env.At(sim.Time(4*(rc.WarmupNs+
		int64(rc.Rounds)*int64(servers)*(drainDL+rc.RestartDelayNs+rc.StaggerNs)+
		int64(wl.Writes)*(wl.PaceNs+1_000_000))), env.Stop)
	env.Run()

	res.Incomplete = wl.Workers - workersDone
	stores := make([]*hatkv.Store, servers)
	for i, h := range hats {
		stores[i] = h.Store()
		res.NodeStats.Add(h.Stats())
		res.DrainedRequests += h.Drained()
	}
	for _, c := range clients {
		res.Refreshes += c.Stats().Refreshes
	}
	res.Drains = reg.Counter("node.drains").Value()
	res.Escalations = reg.Counter("node.drain_escalations").Value()
	auditCluster(res, ccfg, stores)
	fillCycleEconomics(res, hats)
	return res, nil
}

// auditCluster checks every acked write against its shard's authority
// replica and records the final durable shard positions.
func auditCluster(res *RollingResult, ccfg cluster.Config, stores []*hatkv.Store) {
	nshards := cluster.NumShards(ccfg)
	auth := make([]int, nshards)
	res.ShardEpochs = make([]uint64, nshards)
	res.ShardSeqs = make([]uint64, nshards)
	for s := 0; s < nshards; s++ {
		auth[s] = cluster.ShardAuthority(ccfg, stores, s)
		res.ShardEpochs[s], res.ShardSeqs[s] = cluster.ShardPosition(stores[auth[s]], s)
	}
	for i := range res.Writes {
		w := &res.Writes[i]
		res.Acked++
		shard := cluster.ShardOf(w.Key, nshards)
		if !cluster.StoreHas(stores[auth[shard]], shard, w.Key) {
			w.Lost = true
			res.Lost++
		}
	}
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
// soaks must produce byte-identical reports, cycle timings, final shard
// positions and write digest included. The write log is folded into an
// FNV-1a digest.
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
	fmt.Fprintf(&b, "shards:")
	for s := range r.ShardEpochs {
		fmt.Fprintf(&b, " e%d/s%d", r.ShardEpochs[s], r.ShardSeqs[s])
	}
	fmt.Fprintf(&b, "\n")
	h := fnv.New64a()
	for _, w := range r.Writes {
		fmt.Fprintf(h, "%s|%d|%v\n", w.Key, w.AckAt, w.Lost)
	}
	fmt.Fprintf(&b, "writes_digest=%016x\n", h.Sum64())
	return b.String()
}
