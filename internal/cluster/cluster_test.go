package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// --- ring ---

func TestReplicasDeterministicAndDistinct(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4}
	for shard := 0; shard < 16; shard++ {
		a := Replicas(42, nodes, shard, 3)
		b := Replicas(42, nodes, shard, 3)
		if len(a) != 3 {
			t.Fatalf("shard %d: %d replicas, want 3", shard, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d: non-deterministic replicas %v vs %v", shard, a, b)
			}
		}
		seen := map[int]bool{}
		for _, r := range a {
			if seen[r] {
				t.Fatalf("shard %d: duplicate replica in %v", shard, a)
			}
			seen[r] = true
		}
	}
	// rf is clamped to the node count.
	if got := Replicas(42, []int{0, 1}, 0, 5); len(got) != 2 {
		t.Fatalf("clamped rf: %v, want 2 nodes", got)
	}
}

func TestRingSpreadsPrimaries(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4}
	m := NewShardMap(7, nodes, 64, 3)
	count := make([]int, len(nodes))
	for _, s := range m.Shards {
		count[s.Primary]++
	}
	for n, c := range count {
		if c == 0 {
			t.Errorf("node %d owns no primaries across 64 shards: %v", n, count)
		}
		if c > 32 {
			t.Errorf("node %d owns %d/64 primaries — ring badly skewed: %v", n, c, count)
		}
	}
}

// --- shard-map wire codec ---

func TestShardMapCodecRoundTrip(t *testing.T) {
	m := NewShardMap(7, []int{0, 1, 2, 3, 4}, 8, 3)
	m.Shards[3].Epoch = 9
	m.Shards[3].Primary = 4
	enc := m.Encode()
	dec, err := DecodeShardMap(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Shards) != len(m.Shards) {
		t.Fatalf("shard count %d, want %d", len(dec.Shards), len(m.Shards))
	}
	for i := range m.Shards {
		a, b := m.Shards[i], dec.Shards[i]
		if a.Epoch != b.Epoch || a.Primary != b.Primary || len(a.Replicas) != len(b.Replicas) {
			t.Fatalf("shard %d: %+v != %+v", i, a, b)
		}
		for j := range a.Replicas {
			if a.Replicas[j] != b.Replicas[j] {
				t.Fatalf("shard %d replicas: %v != %v", i, a.Replicas, b.Replicas)
			}
		}
	}
	// Truncations at every length must fail cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeShardMap(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeShardMap(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	// The codec's cost is pinned: the map is the generated value, encoded
	// and decoded as it is, with no copy converted on either side.
	if a := testing.AllocsPerRun(50, func() { DecodeShardMap(m.Encode()) }); a != 18 && !raceBuild {
		t.Errorf("an Encode and DecodeShardMap of the 8-shard map allocate %.0f objects, want 18", a)
	}
}

// raceBuild is set under the race detector (race_test.go), whose
// allocation counts differ.
var raceBuild bool

// BenchmarkShardMapCodec times one Encode and DecodeShardMap of the map
// the benchmark's cluster.shardmap_codec_host_ns row times.
func BenchmarkShardMapCodec(b *testing.B) {
	sm := NewShardMap(1, []int{0, 1, 2, 3, 4}, 8, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeShardMap(sm.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestShardMapMergeHigherEpochWins(t *testing.T) {
	a := NewShardMap(7, []int{0, 1, 2}, 4, 3)
	b := NewShardMap(7, []int{0, 1, 2}, 4, 3)
	b.Shards[1].Epoch = 5
	b.Shards[1].Primary = 2
	a.Shards[2].Epoch = 3
	a.Shards[2].Primary = 1
	a.Merge(b)
	if a.Shards[1].Epoch != 5 || a.Shards[1].Primary != 2 {
		t.Errorf("shard 1 not adopted: %+v", a.Shards[1])
	}
	if a.Shards[2].Epoch != 3 || a.Shards[2].Primary != 1 {
		t.Errorf("shard 2 regressed: %+v", a.Shards[2])
	}
}

// --- live cluster harness ---

// testCluster wires nservers cluster nodes (durable store + per-boot
// engine/Node, restart hooks re-arming both) plus one client node.
type testCluster struct {
	env    *sim.Env
	cl     *simnet.Cluster
	cfg    Config
	roster []*simnet.Node
	stores []*hatkv.Store
	nodes  []*Node          // current boot's service per server
	engs   []*engine.Engine // current boot's engine per server
	cliEng *engine.Engine
}

func newTestCluster(t *testing.T, seed int64, nservers int, cfg Config) *testCluster {
	t.Helper()
	return newTestClusterWith(t, seed, nservers, cfg, engine.DefaultConfig())
}

// newTestClusterWith is newTestCluster with every engine built from ecfg;
// a cfg.Seed already set places the shards instead of the sim seed.
func newTestClusterWith(t *testing.T, seed int64, nservers int, cfg Config, ecfg engine.Config) *testCluster {
	t.Helper()
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: nservers + 1, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	cfg.NodeIDs = make([]int, nservers)
	for i := range cfg.NodeIDs {
		cfg.NodeIDs[i] = i
	}
	cfg = cfg.withDefaults()
	tc := &testCluster{env: env, cl: cl, cfg: cfg, nodes: make([]*Node, nservers), engs: make([]*engine.Engine, nservers)}
	for i := 0; i < nservers; i++ {
		tc.roster = append(tc.roster, cl.Node(i))
	}
	for i := 0; i < nservers; i++ {
		i := i
		node := cl.Node(i)
		store, err := hatkv.NewStore(node, nil, nil)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		if err := store.Env().SetSync(lmdb.SyncFull); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		tc.stores = append(tc.stores, store)
		boot := func() {
			tc.engs[i] = engine.New(node, ecfg)
			tc.nodes[i] = NewUnservedNode(tc.engs[i], store, tc.roster, i, cfg)
			tc.engs[i].Serve(Port, tc.nodes[i].Handle)
		}
		boot()
		node.SetRestart(func(p *sim.Proc) { boot() })
	}
	tc.cliEng = engine.New(cl.Node(nservers), ecfg)
	return tc
}

// direct is a transport that hands each request to a node's Handle on
// the calling process: a test drives the generated processor and the
// node's verbs without an engine in between.
type direct struct{ n *Node }

func (d direct) Invoke(p *sim.Proc, fn string, req []byte, _ bool) ([]byte, error) {
	return d.n.Handle(p, gen.ClusterHints.FnIDs[fn], req), nil
}
func (direct) Stage() []byte { return nil }
func (direct) Close() error  { return nil }

// at returns a client whose calls node n serves on the caller's process.
// Like every generated client it carries one call at a time.
func at(n *Node) *gen.ClusterClient { return gen.NewClusterClient(direct{n}) }

// outcome names how a verb ended: "ok", its declared exception, or
// "error" for any other failure.
func outcome(err error) string {
	switch err.(type) {
	case nil:
		return "ok"
	case *gen.Stale:
		return "stale"
	case *gen.Fenced:
		return "fenced"
	case *gen.NotQuorum:
		return "notquorum"
	case *gen.NeedSync:
		return "needsync"
	case *gen.NotFound:
		return "notfound"
	}
	return "error"
}

// TestGetRetriesMalformedReply: a read reply that does not decode — cut
// short, or carrying no result — says nothing about the key: the client
// retries instead of reporting the key missing (or present).
func TestGetRetriesMalformedReply(t *testing.T) {
	env := sim.NewEnv(43)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cfg := Config{Seed: 43, NodeIDs: []int{0}, NShards: 1, RF: 1}
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cl.Node(0), engine.DefaultConfig())
	n := NewUnservedNode(eng, store, []*simnet.Node{cl.Node(0)}, 0, cfg)
	spoil := []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },                               // cut short
		func(b []byte) []byte { return append(b[:12+len("Get"):12+len("Get")], 0) }, // the header, then no field
	}
	eng.Serve(Port, func(p *sim.Proc, fn uint32, req []byte) []byte {
		resp := n.Handle(p, fn, req)
		if fn == FnClusterGet && len(spoil) > 0 {
			resp = spoil[0](resp)
			spoil = spoil[1:]
		}
		return resp
	})
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := NewClient(engine.New(cl.Node(1), engine.DefaultConfig()), []*simnet.Node{cl.Node(0)}, cfg)
		if err := c.Put(p, "k", []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if v, err := c.Get(p, "k"); err != nil || string(v) != "v" {
			t.Errorf("get behind two malformed replies: %q, %v; want the third reply's value", v, err)
		}
		if st := c.Stats(); st.Gets != 1 || st.Failures != 0 || len(spoil) != 0 {
			t.Errorf("client stats: %+v, %d replies unspoiled; want one read, no failure and both spoiled", st, len(spoil))
		}
	})
	env.Run()
}

func TestClusterPutGet(t *testing.T) {
	tc := newTestCluster(t, 11, 3, Config{NShards: 8, RF: 3})
	tc.env.Spawn("client", func(p *sim.Proc) {
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		for i := 0; i < 24; i++ {
			key := fmt.Sprintf("key-%03d", i)
			if err := c.Put(p, key, []byte("val-"+key)); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
		}
		for i := 0; i < 24; i++ {
			key := fmt.Sprintf("key-%03d", i)
			v, err := c.Get(p, key)
			if err != nil || !bytes.Equal(v, []byte("val-"+key)) {
				t.Fatalf("get %s: %q, %v", key, v, err)
			}
		}
		if _, err := c.Get(p, "no-such-key"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing key: %v, want ErrNotFound", err)
		}
		st := c.Stats()
		if st.Puts != 24 || st.Gets != 25 || st.Failures != 0 {
			t.Errorf("client stats: %+v", st)
		}
		tc.env.Stop()
	})
	tc.env.Run()
	// Every replica of every shard holds identical content (RF=3 on 3
	// nodes: full replication, no failovers → seqs match everywhere).
	for s := 0; s < tc.cfg.NShards; s++ {
		for _, n := range tc.nodes {
			st := n.shards[s]
			if st == nil {
				t.Fatalf("node %d missing shard %d at RF=3/3 nodes", n.self, s)
			}
			if st.epoch != 1 {
				t.Errorf("node %d shard %d epoch %d, want 1", n.self, s, st.epoch)
			}
		}
	}
}

// TestClusterFailover is the tentpole lifecycle test: the primary of a
// shard crashes mid-workload; a backup detects it, runs the epoch-fenced
// candidacy and promotes; the client chases the view via refresh and
// keeps writing with zero acked-write loss; the restarted old primary is
// fenced (its stale-epoch write attempt can never ack) and rejoins as a
// backup via resync.
func TestClusterFailover(t *testing.T) {
	tc := newTestCluster(t, 13, 3, Config{NShards: 4, RF: 3})
	key := "failover-key"
	shard := ShardOf(key, tc.cfg.NShards)
	prim := int(NewShardMap(tc.cfg.Seed, tc.cfg.NodeIDs, tc.cfg.NShards, tc.cfg.RF).Shards[shard].Primary)

	// Every shard the crashed node led must fail over (not only the test
	// key's): led counts them, survivorStats sums the other nodes' current
	// boots.
	led := int64(0)
	for _, s := range NewShardMap(tc.cfg.Seed, tc.cfg.NodeIDs, tc.cfg.NShards, tc.cfg.RF).Shards {
		if int(s.Primary) == prim {
			led++
		}
	}
	survivorStats := func() (promotions, candidacies int64) {
		for i, n := range tc.nodes {
			if i != prim { // the old primary's current boot has fresh zero stats
				promotions += n.stats.Promotions
				candidacies += n.stats.Candidacies
			}
		}
		return
	}

	var cli *Client
	tc.env.Spawn("client", func(p *sim.Proc) {
		cli = NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := cli.Put(p, key, []byte("v1")); err != nil {
			t.Fatalf("pre-crash put: %v", err)
		}
		tc.roster[prim].Crash()
		// Keep writing through the failover window; every eventual ack
		// must land in the new view.
		var lastVal string
		for i := 0; i < 10; i++ {
			lastVal = fmt.Sprintf("v%d", i+2)
			for {
				if err := cli.Put(p, key, []byte(lastVal)); err == nil {
					break
				}
			}
		}
		if got := cli.View().Shards[shard]; got.Epoch < 2 || int(got.Primary) == prim {
			t.Errorf("client view after failover: %+v (old primary %d)", got, prim)
		}
		// The writes above need only the key's own shard to fail over, and
		// ten acked puts now take fewer monitor ticks than the survivors
		// need to work through every shard the dead node led (one candidacy
		// at a time). The property below is "one promotion per led shard
		// while the primary stays down", so keep it down until the monitors
		// have had their turn at each shard — bounded, so a shard that never
		// fails over still fails the assertion instead of hanging.
		for tick := 0; tick < 40; tick++ {
			if promotions, _ := survivorStats(); promotions >= led {
				break
			}
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		// Old primary comes back: it must be fenced out of acking (its
		// content is one epoch behind) and the data must stay readable.
		tc.roster[prim].Restart()
		p.Sleep(2_000_000) // give resync a few monitor ticks
		v, err := cli.Get(p, key)
		if err != nil || string(v) != lastVal {
			t.Fatalf("post-restart get: %q, %v (want %q)", v, err, lastVal)
		}
		tc.env.Stop()
	})
	tc.env.Run()

	promotions, candidacies := survivorStats()
	// At least one promotion per led shard. Occasionally a shard is
	// promoted twice: a later successor's census times out against a
	// candidate busy holding the shard mutex for its own candidacy, so it
	// runs a sequential higher-epoch one — benign, the cluster converges
	// on the highest epoch.
	if promotions < led || promotions > 2*led {
		t.Errorf("promotions = %d, want within [%d, %d] (node %d led %d shards)",
			promotions, led, 2*led, prim, led)
	}
	if candidacies < 1 {
		t.Errorf("candidacies = %d, want ≥ 1", candidacies)
	}
	if cli.Stats().Refreshes == 0 {
		t.Errorf("client never refreshed its shard map across a failover")
	}
	// The restarted old primary rejoined via resync: its content epoch
	// caught up to the survivors'.
	newEpoch := int64(0)
	for i, n := range tc.nodes {
		if i != prim {
			if e := n.shards[shard].epoch; e > newEpoch {
				newEpoch = e
			}
		}
	}
	if newEpoch < 2 {
		t.Fatalf("surviving replicas never advanced past epoch 1")
	}
	if e := tc.nodes[prim].shards[shard].epoch; e != newEpoch {
		t.Errorf("restarted old primary at epoch %d, survivors at %d — resync never landed", e, newEpoch)
	}
}

// TestDeposedPrimaryRead runs the stale-read schedule of DESIGN.md §15's
// residual: the primary is cut from both backups, both ways, while its
// client still reaches it. The backups elect a new primary and a second
// client writes v2 through it; the first client, still routed to the old
// primary, then reads. Nothing on the read path consults a backup, and the
// old primary has heard of no new view, so it serves its own v1 — a stale
// read, pinned here as the known hole it is.
func TestDeposedPrimaryRead(t *testing.T) {
	tc := newTestCluster(t, 89, 3, Config{NShards: 1, RF: 3})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	old := reps[0]
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		c1 := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c1.Put(p, "k", []byte("v1")); err != nil {
			t.Errorf("put v1: %v", err)
			return
		}
		var cuts []simnet.LinkCut
		for _, b := range reps[1:] {
			cuts = append(cuts, simnet.LinkCut{From: old, To: b, StartNs: int64(p.Now()), EndNs: 1 << 62},
				simnet.LinkCut{From: b, To: old, StartNs: int64(p.Now()), EndNs: 1 << 62})
		}
		tc.cl.InstallFaults(simnet.FaultConfig{OneWayCuts: cuts})
		for tick := 0; tc.totalPromotions() == 0; tick++ {
			if tick == 40 {
				t.Error("no backup promoted within 40 probe intervals")
				return
			}
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		c2 := NewClient(tc.cliEng, tc.roster, tc.cfg)
		c2.Refresh(p) // route to the new primary, not through the old one
		if err := c2.Put(p, "k", []byte("v2")); err != nil {
			t.Errorf("put v2 through the new primary: %v", err)
			return
		}
		if e := c2.View().Shards[0].Epoch; e < 2 || c1.View().Shards[0].Epoch != 1 {
			t.Fatalf("views: writer at epoch %d, reader at %d; want ≥ 2 and 1", e, c1.View().Shards[0].Epoch)
		}
		v, err := c1.Get(p, "k")
		if err != nil || string(v) != "v1" {
			t.Errorf("the deposed primary's read: %q, %v; the known hole serves v1. If a primary lease or a "+
				"read-index round now refuses it, assert the refusal and the check that made it here instead, "+
				"and drop the stale-read residual from DESIGN.md §15", v, err)
		}
	})
	tc.env.Run()
}

// TestClusterDeposedPrimaryCannotAck pins the fencing property directly:
// a client still routing at the old epoch to a restarted old primary
// gets Stale (surfaced as engine.ErrStaleShardEpoch through the retry
// loop's last error) and its write lands only via the new primary.
func TestClusterDeposedPrimaryCannotAck(t *testing.T) {
	tc := newTestCluster(t, 17, 3, Config{NShards: 4, RF: 3})
	key := "fenced-key"
	shard := ShardOf(key, tc.cfg.NShards)
	prim := int(NewShardMap(tc.cfg.Seed, tc.cfg.NodeIDs, tc.cfg.NShards, tc.cfg.RF).Shards[shard].Primary)

	tc.env.Spawn("client", func(p *sim.Proc) {
		c1 := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c1.Put(p, key, []byte("before")); err != nil {
			t.Fatalf("seed put: %v", err)
		}
		tc.roster[prim].Crash()
		for { // drive the failover to completion
			if err := c1.Put(p, key, []byte("during")); err == nil {
				break
			}
		}
		tc.roster[prim].Restart()
		p.Sleep(500_000) // old primary is back up, content one epoch behind
		// A fresh client starts from the static epoch-1 view: its first
		// write goes to the deposed primary, which must answer Stale and
		// never ack; the client reroutes on the reply's fresher epoch.
		c2 := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c2.Put(p, key, []byte("after")); err != nil {
			t.Fatalf("stale-view put: %v", err)
		}
		if c2.Stats().StaleRetries == 0 {
			t.Errorf("fresh client was never told Stale by the deposed primary")
		}
		v, err := c2.Get(p, key)
		if err != nil || string(v) != "after" {
			t.Fatalf("get: %q, %v", v, err)
		}
		tc.env.Stop()
	})
	tc.env.Run()
}
