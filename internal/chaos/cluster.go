package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/node"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// ClusterConfig parameterizes one cluster-wide soak: N server nodes
// running the sharded, replicated HatKV tier (internal/cluster) plus
// one client node, under a seeded crash schedule and (optionally) a
// seeded partition/fault plan covering the servers.
type ClusterConfig struct {
	Seed    int64
	Sync    lmdb.SyncMode
	Servers int // cluster node count (≥3 for real failover at RF 3)
	NShards int
	RF      int

	Workers         int
	WritesPerWorker int
	WritePaceNs     int64

	Crash  simnet.CrashConfig // node ids are server indexes 0..Servers-1
	Faults simnet.FaultConfig
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

// ClusterResult is the audited outcome of a cluster soak.
type ClusterResult struct {
	Crashes []NodeCrash
	Writes  []ClusterWrite

	Acked int
	Lost  int // acked writes absent from their shard's authority replica

	GetChecks     int
	GetMismatches int // read-backs returning wrong bytes — always a bug
	FailedPuts    int64
	Incomplete    int

	// Cluster lifecycle, summed over every boot of every server.
	cluster.NodeStats

	// Client routing, summed over the workers.
	Refreshes    int64
	StaleRetries int64

	// Per-shard final durable position at the authority replica.
	ShardEpochs []uint64
	ShardSeqs   []uint64
}

// soakSpec is what one cluster soak varies; soak is the body they all
// run: servers+1 simnet nodes, a crash log per server,
// retry-until-acked workers on the last node that read every fifth key
// back, lifecycle and routing counters summed, and every acked write
// audited against its shard's authority replica.
type soakSpec struct {
	seed    int64
	servers int
	ccfg    cluster.Config
	crash   simnet.CrashConfig
	faults  simnet.FaultConfig

	workers, writes int
	paceNs          int64
	watchdogNs      int64 // the soak stops here even if a worker wedges; 0 = never

	// boot builds server i: its durable store, its first boot and its
	// restart hook. stats reads the lifecycle counters of all its boots.
	boot func(i int, sn *simnet.Node, roster []*simnet.Node) (store *hatkv.Store, stats func() cluster.NodeStats, err error)
	// operate, when set, runs beside the workers as the operator process;
	// the soak ends when it and every worker have returned.
	operate func(p *sim.Proc, cl *simnet.Cluster)
}

func (cs soakSpec) soak(res *ClusterResult) error {
	env := sim.NewEnv(cs.seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: cs.servers + 1, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	roster := make([]*simnet.Node, cs.servers)
	for i := range roster {
		roster[i] = cl.Node(i)
	}
	stores := make([]*hatkv.Store, cs.servers)
	stats := make([]func() cluster.NodeStats, cs.servers)
	for i, sn := range roster {
		var err error
		if stores[i], stats[i], err = cs.boot(i, sn, roster); err != nil {
			return err
		}
		// Crash log, registered after the server so its rollback and
		// lifecycle hooks run first; re-arms itself across boots.
		var logCrash func()
		logCrash = func() {
			res.Crashes = append(res.Crashes, NodeCrash{Node: i, At: env.Now()})
			sn.OnCrash(logCrash)
		}
		sn.OnCrash(logCrash)
	}
	cl.InstallCrashes(cs.crash)
	cl.InstallFaults(cs.faults)

	cliEng := engine.New(cl.Node(cs.servers), node.EngineConfig())
	var clients []*cluster.Client
	workersDone, opsDone := 0, cs.operate == nil
	maybeStop := func() {
		if opsDone && workersDone == cs.workers {
			env.Stop()
		}
	}
	for w := 0; w < cs.workers; w++ {
		env.Spawn(fmt.Sprintf("soak-worker-%d", w), func(p *sim.Proc) {
			c := cluster.NewClient(cliEng, roster, cs.ccfg)
			clients = append(clients, c)
			for i := 0; i < cs.writes; i++ {
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
				if cs.paceNs > 0 {
					p.Sleep(sim.Duration(cs.paceNs))
				}
			}
			workersDone++
			maybeStop()
		})
	}
	if cs.operate != nil {
		env.Spawn("soak-ops", func(p *sim.Proc) {
			cs.operate(p, cl)
			opsDone = true
			maybeStop()
		})
	}
	if cs.watchdogNs > 0 {
		env.At(sim.Time(cs.watchdogNs), env.Stop)
	}
	env.Run()

	res.Incomplete = cs.workers - workersDone
	for _, st := range stats {
		res.NodeStats.Add(st())
	}
	for _, c := range clients {
		st := c.Stats()
		res.Refreshes += st.Refreshes
		res.StaleRetries += st.StaleRetries
	}
	auditCluster(res, cs.ccfg, stores)
	return nil
}

// ClusterSoak runs one cluster soak to completion and audits it: every
// worker write is retried until acked, and at the end every acked write
// must be present at its shard's authority replica — the replica with
// the maximum durable (epoch, seq). Under SyncFull and RF ≥ 2 the
// epoch-fencing argument makes any loss a protocol bug, crashes and
// partitions notwithstanding.
func ClusterSoak(cfg ClusterConfig) *ClusterResult {
	if cfg.Servers <= 0 {
		cfg.Servers = 5
	}
	if cfg.NShards <= 0 {
		cfg.NShards = 8
	}
	if cfg.RF <= 0 {
		cfg.RF = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.WritesPerWorker <= 0 {
		cfg.WritesPerWorker = 40
	}
	ccfg := cluster.Config{Seed: cfg.Seed, NShards: cfg.NShards, RF: cfg.RF}
	ccfg.NodeIDs = make([]int, cfg.Servers)
	for i := range ccfg.NodeIDs {
		ccfg.NodeIDs[i] = i
	}
	res := &ClusterResult{}
	err := soakSpec{
		seed: cfg.Seed, servers: cfg.Servers, ccfg: ccfg, crash: cfg.Crash, faults: cfg.Faults,
		workers: cfg.Workers, writes: cfg.WritesPerWorker, paceNs: cfg.WritePaceNs,
		watchdogNs: 4 * cfg.Crash.HorizonNs,
		// A bare cluster node per boot over the server's one durable store;
		// the crashed boot's engine dies with its device and processes.
		boot: func(i int, sn *simnet.Node, roster []*simnet.Node) (*hatkv.Store, func() cluster.NodeStats, error) {
			store, err := hatkv.NewStore(sn, nil, nil)
			if err != nil {
				return nil, nil, err
			}
			if err := store.Env().SetSync(cfg.Sync); err != nil {
				return nil, nil, err
			}
			var boots []*cluster.Node
			boot := func() {
				eng := engine.New(sn, node.EngineConfig())
				n := cluster.NewUnservedNode(eng, store, roster, i, ccfg)
				eng.Serve(cluster.Port, n.Handle)
				boots = append(boots, n)
			}
			boot()
			sn.SetRestart(func(p *sim.Proc) { boot() })
			return store, func() cluster.NodeStats {
				var st cluster.NodeStats
				for _, n := range boots {
					st.Add(n.Stats())
				}
				return st
			}, nil
		},
	}.soak(res)
	if err != nil {
		panic("chaos: " + err.Error()) // nil hints and a valid sync mode cannot fail
	}
	return res
}

// auditCluster checks every acked write against its shard's authority
// replica and records the final durable shard positions.
func auditCluster(res *ClusterResult, ccfg cluster.Config, stores []*hatkv.Store) {
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

// Report renders the audited outcome deterministically — two same-seed
// soaks must produce byte-identical reports. The write log is folded
// into an FNV-1a digest.
func (r *ClusterResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster soak: acked=%d lost=%d incomplete=%d\n", r.Acked, r.Lost, r.Incomplete)
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_puts=%d\n", r.GetChecks, r.GetMismatches, r.FailedPuts)
	fmt.Fprintf(&b, "lifecycle: promotions=%d candidacies=%d resyncs=%d stale=%d fenced=%d\n",
		r.Promotions, r.Candidacies, r.Resyncs, r.StaleWrites, r.FencedWrites)
	fmt.Fprintf(&b, "clients: refreshes=%d stale_retries=%d\n", r.Refreshes, r.StaleRetries)
	fmt.Fprintf(&b, "crashes: %d\n", len(r.Crashes))
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  node=%d at=%d\n", c.Node, c.At)
	}
	r.reportTail(&b)
	return b.String()
}

// reportTail renders what every cluster soak's report ends with: the
// final shard positions and the digest of the write log.
func (r *ClusterResult) reportTail(b *strings.Builder) {
	fmt.Fprintf(b, "shards:")
	for s := range r.ShardEpochs {
		fmt.Fprintf(b, " e%d/s%d", r.ShardEpochs[s], r.ShardSeqs[s])
	}
	fmt.Fprintf(b, "\n")
	h := fnv.New64a()
	for _, w := range r.Writes {
		fmt.Fprintf(h, "%s|%d|%v\n", w.Key, w.AckAt, w.Lost)
	}
	fmt.Fprintf(b, "writes_digest=%016x\n", h.Sum64())
}
