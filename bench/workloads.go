package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/hints"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
	"hatrpc/internal/ycsb"
)

// workload is one seeded scenario. Sim-time sizes are the full-length
// values; -quick and the traced pass scale warmNs/windowNs down.
type workload struct {
	name    string
	why     string
	primary string // the op kind (prefix) whose latency the end-to-end percentiles describe
	loop    string // "closed" or "open"
	clients int

	setupNs  int64 // sim budget for serial dial + registration
	warmNs   int64 // warm-up window, excluded
	windowNs int64 // measured window

	build func(s *scn)
}

var workloads = []*workload{
	{
		name: "echo_small", primary: "Echo", loop: "closed", clients: 8,
		why:     "512 B echo through the generated stub and hint-selected plan; per-message engine+verbs+sim handoff cost is nearly all the work",
		setupNs: 3_000_000, warmNs: 2_000_000, windowNs: 20_000_000,
		build: func(s *scn) { buildEcho(s, 512, 8) },
	},
	{
		name: "echo_bulk", primary: "Echo", loop: "closed", clients: 4,
		why:     "128 KB echo under a throughput hint; registration, wire bandwidth and host memmove dominate, so per-message wins should not show here",
		setupNs: 3_000_000, warmNs: 2_000_000, windowNs: 100_000_000,
		build: func(s *scn) { buildEcho(s, 128<<10, 4) },
	},
	{
		name: "kv_read", primary: "Get", loop: "closed", clients: 16,
		why:     "HatKV YCSB-B over zipf keys; adds thrift struct codec, per-function plan lookup and lmdb read txns to the RPC path",
		setupNs: 6_000_000, warmNs: 1_000_000, windowNs: 20_000_000,
		build: func(s *scn) { buildKV(s, ycsb.WorkloadB(kvRecords), false) },
	},
	{
		name: "kv_write", primary: "Put", loop: "closed", clients: 16,
		why:     "HatKV YCSB-A with SyncFull; the lmdb write txn and synced commit serialise the server, so a read-path gain that costs writers shows here",
		setupNs: 6_000_000, warmNs: 1_000_000, windowNs: 150_000_000,
		build: func(s *scn) { buildKV(s, ycsb.WorkloadA(kvRecords), true) },
	},
	{
		name: "cluster_rf3", primary: "put", loop: "closed", clients: 1,
		why:     "fault-free 5-node RF-3 SyncFull cluster at steady state; cluster codec, sessions, replication fan-out and quorum ack, with 1 put in 8 carrying 16 KB",
		setupNs: 8_000_000, warmNs: 4_000_000, windowNs: 160_000_000,
		build: buildCluster,
	},
	{
		name: "overload_2x", primary: "call", loop: "open", clients: 128,
		why:     "open loop at twice capacity on the raw engine; the only workload where admission, credits and typed shedding do the work",
		setupNs: 60_000_000, warmNs: 4_000_000, windowNs: 60_000_000,
		build: buildOverload,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fabric is one server node plus client nodes, an engine on each.
type fabric struct {
	server  *engine.Engine
	clients []*engine.Engine
}

func newFabric(s *scn, nodes int, ecfg engine.Config) *fabric {
	cfg := simnet.DefaultConfig()
	cfg.Nodes = nodes
	cl := simnet.NewCluster(s.env, cfg)
	f := &fabric{server: engine.New(cl.Node(0), ecfg)}
	for i := 1; i < nodes; i++ {
		f.clients = append(f.clients, engine.New(cl.Node(i), ecfg))
	}
	s.tr.attach(f.server)
	s.tr.attach(f.clients...)
	return f
}

func (f *fabric) clientEngine(i int) *engine.Engine { return f.clients[i%len(f.clients)] }

// sizedEngineConfig sizes per-connection buffers to the payload regime,
// as cmd/atb does, so a run's host memory is not dominated by 1 MB
// direct buffers nobody uses.
func sizedEngineConfig(size int, fetch bool) engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.MaxMsgSize = 4 * size
	if ecfg.MaxMsgSize < 16384 {
		ecfg.MaxMsgSize = 16384
	}
	ecfg.EagerSlots = 16
	ecfg.NoFetchBufs = !fetch
	return ecfg
}

// think is the seeded sub-microsecond pause between a closed-loop
// client's ops. It keeps the loop closed (one outstanding request per
// client) while making the interleaving — and so every sim metric — a
// function of the seed rather than of one fixed phase pattern.
func think(p *sim.Proc, rng *rand.Rand, maxNs int64) {
	p.Sleep(sim.Duration(rng.Int63n(maxNs)))
}

// ---------------------------------------------------------------------------
// echo_small / echo_bulk: generated ATB stub over trdma, ProtoAuto.

// echoHints is the ATB service table for one run: throughput goal, the
// run's concurrency and payload size at service level (what the paper's
// per-experiment IDL files carry), NUMA-bound server.
func echoHints(conc, payload int) *trdma.ServiceHints {
	shared := map[hints.Key]string{
		hints.KeyPerfGoal:    string(hints.GoalThroughput),
		hints.KeyConcurrency: strconv.Itoa(conc),
		hints.KeyPayloadSize: strconv.Itoa(payload),
	}
	return &trdma.ServiceHints{
		ServiceName: "ATBench",
		Service:     hints.MakeSet(shared, map[hints.Key]string{hints.KeyNUMA: "bind"}, nil),
		Functions:   atbgen.ATBenchHints.Functions,
		FnIDs:       atbgen.ATBenchHints.FnIDs,
		Oneway:      atbgen.ATBenchHints.Oneway,
	}
}

// echoHandler is the ATB server work: a checksum over the payload
// (~1 byte/cycle at 2.6 GHz), then the payload back.
type echoHandler struct {
	node *simnet.Node
	zero bool // layer micro-runs measure the stack with a free handler
}

func (h *echoHandler) work(p *sim.Proc, b []byte) ([]byte, error) {
	if !h.zero {
		h.node.CPU.Compute(p, sim.Duration(float64(len(b))*0.38))
	}
	return b, nil
}

func (h *echoHandler) Echo(p *sim.Proc, b []byte) ([]byte, error)     { return h.work(p, b) }
func (h *echoHandler) LatCall(p *sim.Proc, b []byte) ([]byte, error)  { return h.work(p, b) }
func (h *echoHandler) TputCall(p *sim.Proc, b []byte) ([]byte, error) { return h.work(p, b) }

// spanProcessor wraps a generated processor with the server-handler span
// (decode + handler + encode), linked to its request by the dispatcher
// process it runs on.
type spanProcessor struct {
	s     *scn
	inner trdma.Processor
	node  int
}

func (sp *spanProcessor) ProcessBytes(p *sim.Proc, fn uint32, req []byte) []byte {
	if !sp.s.tr.on() {
		return sp.inner.ProcessBytes(p, fn, req)
	}
	c, id := sp.s.serverRequest(p)
	start := p.Now()
	out := sp.inner.ProcessBytes(p, fn, req)
	sp.s.tr.span("handler", "client", sp.node, c, id, start, p.Now(), sp.s.measured(start))
	return out
}

// echoSize is the payload size a run of the given seed uses for a nominal
// size: within 1.6 % (small) or 0.4 % (bulk) below it. The stack is
// uncontended at the echo workloads' client counts, so with one fixed size
// every op of every seed would take the identical number of nanoseconds.
// Sizes stay at or under the nominal one so that no buffer crosses into
// the next allocator size class from one seed to another.
func echoSize(seed int64, nominal int) int {
	if nominal > 4096 {
		return nominal - 64 - sim.NewRand(seed).Intn(449)
	}
	return nominal - sim.NewRand(seed).Intn(9)
}

func buildEcho(s *scn, nominal, nClients int) {
	f := newFabric(s, 5, sizedEngineConfig(nominal, true))
	sh := echoHints(nClients, nominal)
	size := echoSize(s.seed, nominal)
	proc := &spanProcessor{s: s, node: 0,
		inner: atbgen.NewATBenchProcessor(&echoHandler{node: f.server.Node()})}
	trdma.NewServer(f.server, sh, proc)

	thinkNs := int64(400)
	if nominal > 4096 {
		thinkNs = 2000
	}
	for i := 0; i < nClients; i++ {
		i := i
		rng := s.clientRand(i)
		payload := make([]byte, size)
		rng.Read(payload)
		var c *atbgen.ATBenchClient
		call := func(p *sim.Proc) {
			id := s.nextRequest(i)
			binary.LittleEndian.PutUint64(payload, id)
			start := p.Now()
			got, err := c.Echo(p, payload)
			now := p.Now()
			s.tr.clientSpan("Echo", 1+i%4, i, id, start, now, s.measured(start))
			switch {
			case err != nil:
				s.record("Echo", true, start, now, 0, opFailed, err.Error())
			case !bytes.Equal(got, payload):
				s.record("Echo", true, start, now, 0, opFailed, "reply differs from request")
			default:
				s.record("Echo", true, start, now, 2*size, opOK, "")
			}
		}
		s.spawn(i, func(p *sim.Proc) {
			c = atbgen.NewATBenchClient(trdma.Dial(p, f.clientEngine(i), f.server.Node(), sh, nil))
			call(p)
		}, func(p *sim.Proc) {
			for p.Now() < s.end {
				think(p, rng, thinkNs)
				call(p)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// kv_read / kv_write: HatKV with function hints over a preloaded store.

const (
	kvRecords  = 10_000
	kvValueLen = 1000
)

// kvValue renders the value client c writes to key k as its n-th write:
// a 16-byte header (key, writer, version) and a fill that is a pure
// function of the header, so any returned value can be checked for
// integrity without knowing who wrote it. The preload uses writer 0xFFFF.
func kvValue(dst []byte, k, c, n int) []byte {
	binary.LittleEndian.PutUint64(dst[0:], uint64(k))
	binary.LittleEndian.PutUint32(dst[8:], uint32(c))
	binary.LittleEndian.PutUint32(dst[12:], uint32(n))
	x := uint64(k)*0x9E3779B97F4A7C15 ^ uint64(c)<<32 ^ uint64(n)
	for i := 16; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	return dst
}

const preloadWriter = 0xFFFF

// opDeck expands a YCSB mix into 40 cards in its exact proportions
// (A: 10/10/10/10, B: 19/1/19/1).
func opDeck(wl ycsb.Workload) []ycsb.Op {
	var deck []ycsb.Op
	for _, op := range ycsb.AllOps {
		for n := int(wl.Mix[op]*40 + 0.5); n > 0; n-- {
			deck = append(deck, op)
		}
	}
	return deck
}

// checkKVValue verifies v is a well-formed value for key k and returns
// who wrote it and at which version.
func checkKVValue(v []byte, k int, scratch []byte) (writer, version int, err error) {
	if len(v) != kvValueLen {
		return 0, 0, fmt.Errorf("value of %d bytes, want %d", len(v), kvValueLen)
	}
	if got := int(binary.LittleEndian.Uint64(v)); got != k {
		return 0, 0, fmt.Errorf("value of key %d returned for key %d", got, k)
	}
	writer = int(binary.LittleEndian.Uint32(v[8:]))
	version = int(binary.LittleEndian.Uint32(v[12:]))
	if !bytes.Equal(v, kvValue(scratch, k, writer, version)) {
		return 0, 0, fmt.Errorf("torn value for key %d (writer %d version %d)", k, writer, version)
	}
	return writer, version, nil
}

// spanStore wraps the HatKV handler with the store-op span, the child of
// the server-handler span of the same request.
type spanStore struct {
	s     *scn
	inner kvgen.HatKVHandler
}

func (ss *spanStore) wrap(p *sim.Proc, fn func()) {
	if !ss.s.tr.on() {
		fn()
		return
	}
	c, id := ss.s.serverRequest(p)
	start := p.Now()
	fn()
	ss.s.tr.span("store", "handler", 0, c, id, start, p.Now(), ss.s.measured(start))
}

func (ss *spanStore) Get(p *sim.Proc, key string) (v []byte, err error) {
	ss.wrap(p, func() { v, err = ss.inner.Get(p, key) })
	return
}

func (ss *spanStore) Put(p *sim.Proc, key string, value []byte) (err error) {
	ss.wrap(p, func() { err = ss.inner.Put(p, key, value) })
	return
}

func (ss *spanStore) MultiGet(p *sim.Proc, keys []string) (v [][]byte, err error) {
	ss.wrap(p, func() { v, err = ss.inner.MultiGet(p, keys) })
	return
}

func (ss *spanStore) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) (err error) {
	ss.wrap(p, func() { err = ss.inner.MultiPut(p, pairs) })
	return
}

func buildKV(s *scn, wl ycsb.Workload, syncFull bool) {
	f := newFabric(s, 5, engine.DefaultConfig())
	sh := hatkv.FunctionHints()
	store, err := hatkv.NewStore(f.server.Node(), sh, nil)
	if err != nil {
		panic(err)
	}
	if syncFull {
		if err := store.Env().SetSync(lmdb.SyncFull); err != nil {
			panic(err)
		}
	}
	// Preload through the backend directly (load phase, no simulated cost).
	txn, err := store.Env().BeginWrite()
	if err != nil {
		panic(err)
	}
	val := make([]byte, kvValueLen)
	for k := 0; k < kvRecords; k++ {
		if err := txn.Put([]byte(ycsb.Key(k)), kvValue(val, k, preloadWriter, 0)); err != nil {
			panic(err)
		}
	}
	if err := txn.Commit(); err != nil {
		panic(err)
	}
	var stats0 lmdb.Stats
	s.atWarm = func() { stats0 = store.Env().Stats }
	trdma.NewServer(f.server, sh, &spanProcessor{s: s, node: 0,
		inner: kvgen.NewHatKVProcessor(&spanStore{s: s, inner: store})})
	s.collect = func(layer map[string]float64) {
		st := store.Env().Stats
		layer["lmdb.synced_commit_share"] = share(float64(st.SyncedCommits-stats0.SyncedCommits), float64(st.Commits-stats0.Commits))
	}

	zipf := ycsb.NewZipfian(kvRecords, wl.Theta)
	deck := opDeck(wl)
	for i := 0; i < s.w.clients; i++ {
		i := i
		rng := s.clientRand(i)
		var c *kvgen.HatKVClient
		lastAcked := map[int]int{} // key → this client's last acked version
		lastPut := -1
		version := 0
		scratch := make([]byte, kvValueLen)
		key := func() int { return int(zipf.NextScrambled(rng)) }
		// checkGet enforces read-your-writes where it is decidable: a
		// value this client wrote must be its latest acked version of
		// that key (its own puts are serial); anyone else's value only
		// has to be intact.
		checkGet := func(v []byte, k int) error {
			w, ver, err := checkKVValue(v, k, scratch)
			if err != nil {
				return err
			}
			if w == i && ver < lastAcked[k] {
				return fmt.Errorf("key %d: read own version %d after version %d was acked", k, ver, lastAcked[k])
			}
			return nil
		}
		do := func(p *sim.Proc, op ycsb.Op) {
			id := s.nextRequest(i)
			start := p.Now()
			var err error
			var nbytes int
			name := ""
			switch op {
			case ycsb.OpGet:
				name = "Get"
				k := key()
				var v []byte
				if v, err = c.Get(p, ycsb.Key(k)); err == nil {
					err = checkGet(v, k)
				}
				nbytes = 24 + kvValueLen
			case ycsb.OpPut:
				name = "Put"
				k := key()
				version++
				if err = c.Put(p, ycsb.Key(k), kvValue(make([]byte, kvValueLen), k, i, version)); err == nil {
					lastAcked[k], lastPut = version, k
				}
				nbytes = 24 + kvValueLen
			case ycsb.OpMultiGet:
				name = "MultiGet"
				ks := make([]int, wl.Batch)
				keys := make([]string, wl.Batch)
				for j := range ks {
					ks[j] = key()
					keys[j] = ycsb.Key(ks[j])
				}
				var vs [][]byte
				if vs, err = c.MultiGet(p, keys); err == nil && len(vs) != len(ks) {
					err = fmt.Errorf("MultiGet returned %d values for %d keys", len(vs), len(ks))
				}
				for j := 0; err == nil && j < len(ks); j++ {
					err = checkGet(vs[j], ks[j])
				}
				nbytes = wl.Batch * (24 + kvValueLen)
			case ycsb.OpMultiPut:
				name = "MultiPut"
				version++
				pairs := make([]*kvgen.KVPair, wl.Batch)
				ks := make([]int, wl.Batch)
				for j := range pairs {
					ks[j] = key()
					pairs[j] = &kvgen.KVPair{Key: ycsb.Key(ks[j]), Value: kvValue(make([]byte, kvValueLen), ks[j], i, version)}
				}
				if err = c.MultiPut(p, pairs); err == nil {
					for _, k := range ks {
						lastAcked[k], lastPut = version, k
					}
				}
				nbytes = wl.Batch * (24 + kvValueLen)
			}
			now := p.Now()
			s.tr.clientSpan(name, 1+i%4, i, id, start, now, s.measured(start))
			if err != nil {
				s.record(name, name == s.w.primary, start, now, 0, opFailed, err.Error())
				return
			}
			s.record(name, name == s.w.primary, start, now, nbytes, opOK, "")
		}
		s.spawn(i, func(p *sim.Proc) {
			c = kvgen.NewHatKVClient(trdma.Dial(p, f.clientEngine(i), f.server.Node(), sh, nil))
			do(p, ycsb.OpGet)
		}, func(p *sim.Proc) {
			// Ops are dealt from a shuffled deck holding the mix's exact
			// proportions, so every 40 ops carry the same amount of each
			// kind whatever the seed; the seed decides order and keys.
			hand := append([]ycsb.Op(nil), deck...)
			for n := 0; p.Now() < s.end; n++ {
				if n%len(hand) == 0 {
					rng.Shuffle(len(hand), func(a, b int) { hand[a], hand[b] = hand[b], hand[a] })
				}
				think(p, rng, 400)
				do(p, hand[n%len(hand)])
			}
			// Read-back: the last key this client wrote must hold its own
			// latest version unless another client overwrote it since.
			if lastPut >= 0 {
				v, err := c.Get(p, ycsb.Key(lastPut))
				if err == nil {
					err = checkGet(v, lastPut)
				}
				if err != nil {
					s.failed++
					s.attempted++
					if s.firstErr == "" {
						s.firstErr = "read-back: " + err.Error()
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// cluster_rf3: 5 servers + 1 client node, 8 shards, RF 3, SyncFull.

const (
	clusterServers  = 5
	clusterSmallLen = 128 // mean; each small put carries a seeded 96–160 B
	clusterLargeLen = 16 << 10
)

// clusterFabric is a booted cluster tier: one hatkv store and one
// cluster node per server, served through the harness wrapper so server
// handler spans can be recorded.
type clusterFabric struct {
	cfg    cluster.Config
	roster []*simnet.Node
	nodes  []*cluster.Node
	stores []*hatkv.Store
	cliEng *engine.Engine
}

func newClusterFabric(s *scn, rf int) *clusterFabric {
	ncfg := simnet.DefaultConfig()
	ncfg.Nodes = clusterServers + 1
	cl := simnet.NewCluster(s.env, ncfg)
	cf := &clusterFabric{cfg: cluster.Config{Seed: 1, NShards: 8, RF: rf}}
	for i := 0; i < clusterServers; i++ {
		cf.cfg.NodeIDs = append(cf.cfg.NodeIDs, i)
		cf.roster = append(cf.roster, cl.Node(i))
	}
	// The production node's transport tuning (internal/node Boot).
	ecfg := engine.DefaultConfig()
	ecfg.BreakerThreshold = 4
	ecfg.BreakerCooldown = 500_000
	for i := 0; i < clusterServers; i++ {
		i := i
		store, err := hatkv.NewStore(cl.Node(i), nil, nil)
		if err != nil {
			panic(err)
		}
		if err := store.Env().SetSync(lmdb.SyncFull); err != nil {
			panic(err)
		}
		eng := engine.New(cl.Node(i), ecfg)
		s.tr.attach(eng)
		cn := cluster.NewUnservedNode(eng, store, cf.roster, i, cf.cfg)
		cn.SetObs(s.tr.registry())
		eng.Serve(cluster.Port, func(p *sim.Proc, fn uint32, req []byte) []byte {
			if !s.tr.on() {
				return cn.Handle(p, fn, req)
			}
			name, c, id := "replica", -1, uint64(0)
			if fn == cluster.FnClusterPut || fn == cluster.FnClusterGet {
				name = "handler"
				c, id = s.serverRequest(p)
			}
			start := p.Now()
			out := cn.Handle(p, fn, req)
			s.tr.span(name, "client", i, c+1, id, start, p.Now(), s.measured(start))
			return out
		})
		cf.nodes = append(cf.nodes, cn)
		cf.stores = append(cf.stores, store)
	}
	cf.cliEng = engine.New(cl.Node(clusterServers), ecfg)
	s.tr.attach(cf.cliEng)
	return cf
}

// probeKeys returns, for every server, a key whose shard that server is
// primary for (nil where it leads none), so a registering client can
// open a session to — and be recognised by — each primary it will use.
func (cf *clusterFabric) probeKeys(prefix string) []string {
	view := cluster.NewShardMap(cf.cfg.Seed, cf.cfg.NodeIDs, cf.cfg.NShards, cf.cfg.RF)
	keys := make([]string, clusterServers)
	found := 0
	for j := 0; found < clusterServers && j < 4096; j++ {
		k := fmt.Sprintf("%s-probe-%d", prefix, j)
		pr := int(view.Shards[cluster.ShardOf(k, cf.cfg.NShards)].Primary)
		if keys[pr] == "" {
			keys[pr] = k
			found++
		}
	}
	return keys
}

func buildCluster(s *scn) {
	cf := newClusterFabric(s, 3)
	var clients []*cluster.Client
	// tally sums the cluster's wasted-work counters and commit counts.
	tally := func() (t [5]float64) {
		for _, n := range cf.nodes {
			t[0] += float64(n.Stats().Promotions)
		}
		for _, c := range clients {
			t[1] += float64(c.Stats().StaleRetries)
			t[2] += float64(c.Stats().Refreshes)
		}
		for _, st := range cf.stores {
			t[3] += float64(st.Env().Stats.SyncedCommits)
			t[4] += float64(st.Env().Stats.Commits)
		}
		return t
	}
	var t0 [5]float64
	s.atWarm = func() { t0 = tally() }
	s.collect = func(layer map[string]float64) {
		t := tally()
		layer["cluster.promotions"] = t[0] - t0[0]
		layer["cluster.stale_retries"] = t[1] - t0[1]
		layer["cluster.refreshes"] = t[2] - t0[2]
		layer["lmdb.synced_commit_share"] = share(t[3]-t0[3], t[4]-t0[4])
	}
	for i := 0; i < s.w.clients; i++ {
		i := i
		rng := s.clientRand(i)
		c := cluster.NewClient(cf.cliEng, cf.roster, cf.cfg)
		clients = append(clients, c)
		small := make([]byte, clusterSmallLen+32)
		large := make([]byte, clusterLargeLen)
		rng.Read(small)
		rng.Read(large)
		// One iteration is a Put then a Get of the same own key; the Get
		// must return exactly the bytes just acked.
		pair := func(p *sim.Proc, key string, val []byte) {
			id := s.nextRequest(i)
			binary.LittleEndian.PutUint64(val, id)
			kind := "put_small"
			if len(val) == clusterLargeLen {
				kind = "put_large"
			}
			start := p.Now()
			err := c.Put(p, key, val)
			now := p.Now()
			s.tr.clientSpan(kind, clusterServers, i, id, start, now, s.measured(start))
			if err != nil {
				s.record(kind, true, start, now, 0, opFailed, err.Error())
				return
			}
			s.record(kind, true, start, now, len(key)+len(val), opOK, "")

			id = s.nextRequest(i)
			start = p.Now()
			got, err := c.Get(p, key)
			now = p.Now()
			s.tr.clientSpan("get", clusterServers, i, id, start, now, s.measured(start))
			switch {
			case err != nil:
				s.record("get", false, start, now, 0, opFailed, err.Error())
			case !bytes.Equal(got, val):
				s.record("get", false, start, now, 0, opFailed, "read-back differs from the acked put")
			default:
				s.record("get", false, start, now, len(key)+len(val), opOK, "")
			}
		}
		s.spawn(i, func(p *sim.Proc) {
			for _, k := range cf.probeKeys(fmt.Sprintf("c%d", i)) {
				if k != "" {
					pair(p, k, small[:clusterSmallLen])
				}
			}
		}, func(p *sim.Proc) {
			for it := 0; p.Now() < s.end; it++ {
				think(p, rng, 1000)
				val := small[:clusterSmallLen-32+rng.Intn(65)]
				if it%8 == 7 {
					val = large
				}
				pair(p, fmt.Sprintf("c%d-k%04d", i, rng.Intn(2000)), val)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// overload_2x: raw engine, open loop at twice capacity.

const (
	overloadSize      = 1024
	overloadServiceNs = 200_000
	overloadOffered   = 280_000 // ops/s, aggregate; capacity ≈ 28 cores / 200 µs = 140 K
)

func buildOverload(s *scn) {
	ecfg := sizedEngineConfig(overloadSize, false)
	ecfg.EagerSlots = 2
	ecfg.FlowCredits = 2
	ecfg.CallDeadline = 5_000_000
	ecfg.ModelRNR = true
	ecfg.RnrRetry = 40
	f := newFabric(s, 10, ecfg)
	srv := f.server.Serve("bench", func(p *sim.Proc, fn uint32, req []byte) []byte {
		start := p.Now()
		f.server.Node().CPU.Compute(p, overloadServiceNs)
		if s.tr.on() {
			c, id := s.serverRequest(p)
			s.tr.span("handler", "client", 0, c, id, start, p.Now(), s.measured(start))
		}
		return req[:8]
	})
	srv.AdmitLimit = 28
	srv.Admit = engine.AdmitShedNewest

	meanGap := float64(s.w.clients) * 1e9 / overloadOffered
	opts := engine.CallOpts{Proto: engine.EagerSendRecv, RespProto: engine.DirectWriteIMM, Busy: true}
	for i := 0; i < s.w.clients; i++ {
		i := i
		rng := s.clientRand(i)
		payload := make([]byte, overloadSize)
		rng.Read(payload)
		var c *engine.Conn
		call := func(p *sim.Proc, due sim.Time) {
			id := s.nextRequest(i)
			binary.LittleEndian.PutUint64(payload, id)
			issued := p.Now()
			got, err := c.Call(p, 1, payload, opts)
			now := p.Now()
			s.tr.clientSpan("call", 1+i%9, i, id, due, now, s.measured(due))
			if s.measured(due) {
				s.lag = append(s.lag, float64(issued-due))
			}
			switch {
			case err == nil && bytes.Equal(got, payload[:8]):
				s.record("call", true, due, now, overloadSize+8, opOK, "")
			case err == nil:
				s.record("call", true, due, now, 0, opFailed, "reply differs from request prefix")
			case errors.Is(err, engine.ErrOverloaded):
				s.record("call", true, due, now, 0, opRefused, "")
			default:
				s.record("call", true, due, now, 0, opFailed, "refusal is not the typed ErrOverloaded: "+err.Error())
			}
		}
		s.spawn(i, func(p *sim.Proc) {
			c = f.clientEngine(i).Dial(p, f.server.Node(), "bench")
			call(p, p.Now())
		}, func(p *sim.Proc) {
			// Poisson arrivals per connection; the schedule is a pure
			// function of the seed. A request whose due time has passed
			// (the previous call was still out) is issued at once and its
			// latency still counts from when it was due.
			due := s.startAt
			for {
				due += sim.Time(rng.ExpFloat64() * meanGap)
				if due >= s.end {
					return
				}
				if now := p.Now(); now < due {
					p.Sleep(sim.Duration(due - now))
				}
				call(p, due)
			}
		})
	}
}
