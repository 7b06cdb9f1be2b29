package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatdebug"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// TestStoreKeyForms: the per-shard prefix and meta key a shardState keeps,
// and the data key the hot path concatenates from them, are byte-equal to
// the Sprintf forms every durable store already holds.
func TestStoreKeyForms(t *testing.T) {
	for _, shard := range []int{0, 7, 0x0fff, 0xffff} {
		if got, want := metaKey(shard), fmt.Sprintf("m:%04x", shard); got != want {
			t.Errorf("metaKey(%#x) = %q, want %q", shard, got, want)
		}
		for _, key := range [][]byte{nil, []byte("k"), bytes.Repeat([]byte{0xfe}, 255)} {
			got := dataKey(dataPrefix(shard), key)
			if want := fmt.Sprintf("u:%04x:%s", shard, key); got != want {
				t.Errorf("dataKey(shard %#x, %d-byte key) = %q, want %q", shard, len(key), got, want)
			}
		}
	}
}

// putPathAllocs is what the whole simulation — the client's transport, the
// primary's dispatcher and handler, its two lanes, both backups'
// dispatchers, three stores and the backups' appliers — allocates for one
// warmed RF-3 128 B Client.Put. Backups acking from their log did not move
// it: the log's copy of a pair is the one the tree keeps. The parent of
// the overlap change measured 54 by the same count, 38 before a write txn
// copied each lmdb node once and each pair into one allocation, 23 before
// lmdb reused the nodes no snapshot reaches and each shard encoded its
// meta record into one buffer, 11 before the dispatcher recycled every
// request and the primary handed its backups' acks back, 9 before an
// append became one stamped store write instead of a data and a meta pair,
// and 6 before the verbs were generated from cluster.hrpc: the primary's
// answer and each backup's, one fresh byte slice apiece then, are
// serialized into the dispatchers' staging regions now.
const putPathAllocs = 3

func TestPutPathAllocs(t *testing.T) {
	tc := newTestCluster(t, 53, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	var got float64
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := make([]byte, 128)
		put := func() {
			if err := c.Put(p, "key-007", val); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		for i := 0; i < 8; i++ {
			put()
		}
		got = testing.AllocsPerRun(50, put)
	})
	tc.env.Run()
	if got > putPathAllocs {
		t.Errorf("a warmed RF-3 put allocates %.0f objects across the cluster, want ≤ %d", got, putPathAllocs)
	}
	t.Logf("warmed RF-3 put: %.0f allocations", got)
}

// TestWarmedBulkPutCopiesOnlyOnce: a warmed RF-3 put of a 16 KB value
// copies it on the host only where a copy is the work itself. The client
// and both of the primary's lanes serialize their calls straight into
// their sessions' staging regions, which the NIC sends from; each request
// lands by reference, and the primary and both backups serve it where it
// landed — in the sender's staging region — so no region moves away from
// one and no landing is copied in; and each replica's store keeps the one
// record it builds. No staging copy, copy-out or landing copy is left —
// six copies of the value in all, three serializations and three records
// — and the put allocates no more than a small one does.
func TestWarmedBulkPutCopiesOnlyOnce(t *testing.T) {
	tc := newTestCluster(t, 53, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reg := obs.NewRegistry()
	for _, e := range append(tc.engs, tc.cliEng) {
		e.SetObs(reg)
	}
	counters := []string{"engine.stage_copy_bytes", "engine.copy_out_bytes", "verbs.region_moves",
		"verbs.landing_copies.write", "verbs.landing_copies.read", "verbs.landing_copies.deregister"}
	var allocs float64
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := make([]byte, 16<<10)
		put := func() {
			if err := c.Put(p, "key-007", val); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		for i := 0; i < 8; i++ {
			put()
		}
		before := make([]int64, len(counters))
		for i, name := range counters {
			before[i] = reg.Counter(name).Value()
		}
		allocs = testing.AllocsPerRun(20, put)
		for i, name := range counters {
			if d := reg.Counter(name).Value() - before[i]; d != 0 {
				t.Errorf("21 warmed 16 KB puts moved %s by %d, want 0", name, d)
			}
		}
	})
	tc.env.Run()
	if allocs > putPathAllocs {
		t.Errorf("a warmed RF-3 16 KB put allocates %.0f objects across the cluster, want ≤ %d", allocs, putPathAllocs)
	}
}

var statusSink gen.ShardStatus

// TestStatusMessagesAllocateOnce: a census costs one allocation, and only
// off a dispatcher. The request is serialized into its client's own
// buffer, reused by every call; the answer into the staging region of the
// connection when a dispatcher serves it, and into one fresh buffer
// otherwise.
func TestStatusMessagesAllocateOnce(t *testing.T) {
	tc := newTestCluster(t, 61, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	n := tc.nodes[prim]
	st := n.shards[0]
	want := gen.ShardStatus{
		Epoch: int64(st.epoch), Seq: int64(st.seq), LearnedEpoch: int64(st.learnedEpoch),
		LearnedPrimary: int32(st.learnedPrimary), Promised: int64(st.promised), Leads: true,
	}
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		req := &capture{}
		if _, err := gen.NewClusterClient(req).Census(p, 0); err != errCaptured {
			t.Fatal(err)
		}
		c := at(n)
		census := func() {
			var err error
			if statusSink, err = c.Census(p, 0); err != nil || statusSink != want {
				t.Errorf("census answered %+v, %v; want %+v", statusSink, err, want)
			}
		}
		census()
		if a := testing.AllocsPerRun(20, func() { n.Handle(p, gen.ClusterHints.FnIDs["Census"], req.req) }); a != 1 {
			t.Errorf("answering a census off a dispatcher allocates %.0f objects, want 1", a)
		}
		// Across the cluster, on a dispatcher, from the client's own buffer.
		ps := newPeerSessions(tc.cliEng, tc.roster, clientDeadline)
		cc := ps.client(prim)
		served := func() {
			var err error
			if statusSink, err = cc.Census(p, 0); err != nil || statusSink != want {
				t.Errorf("census answered %+v, %v; want %+v", statusSink, err, want)
			}
		}
		served()
		if a := testing.AllocsPerRun(20, served); a != 0 {
			t.Errorf("a census served by a dispatcher allocates %.0f objects, want 0", a)
		}
	})
	tc.env.Run()
}

// TestWarmedProbeAllocatesNothing: a backup's census of a live primary is
// one call — the monitor's client encodes it into its own buffer, answered
// "I lead" — the primary stages its answer on the dispatcher, the backup's
// transport hands the reply back to the arena it came from at its next
// call, and the answer decodes into the caller's frame: a warmed census
// allocates nothing across the cluster.
func TestWarmedProbeAllocatesNothing(t *testing.T) {
	tc := newTestCluster(t, 71, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	backup := tc.nodes[reps[1]]
	got := -1.0
	tc.roster[reps[1]].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		st := backup.shards[0]
		stops := 0
		census := func() {
			if backup.census(p, st, reps[0], true) {
				stops++
			}
		}
		for i := 0; i < 8; i++ {
			census()
		}
		got = testing.AllocsPerRun(50, census)
		if stops != 8+51 || st.lastHeard != p.Now() {
			t.Errorf("%d of %d censuses stopped at the live primary (last word at %d ns, now %d ns)", stops, 8+51, st.lastHeard, p.Now())
		}
	})
	tc.env.Run()
	if got != 0 {
		t.Errorf("a warmed census of a live primary allocates %.0f objects across the cluster, want 0", got)
	}
}

// TestGetValueSurvivesLaterCalls: the value Client.Get returns is the
// caller's, not a window onto a reply the transport recycles — 100 more
// puts and gets on the same client, whose replies are the same size, leave
// it as it was.
func TestGetValueSurvivesLaterCalls(t *testing.T) {
	tc := newTestCluster(t, 67, 3, Config{NShards: 4, RF: 3, ProbeIntervalNs: quietProbeNs})
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d", i)) }
		if err := c.Put(p, "key-000", val(0)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(p, "key-000")
		if err != nil || !bytes.Equal(got, val(0)) {
			t.Fatalf("get: %q, %v", got, err)
		}
		for i := 1; i <= 50; i++ {
			key := fmt.Sprintf("key-%03d", i)
			if err := c.Put(p, key, val(i)); err != nil {
				t.Fatal(err)
			}
			if v, err := c.Get(p, key); err != nil || !bytes.Equal(v, val(i)) {
				t.Fatalf("get %s: %q, %v", key, v, err)
			}
		}
		if !bytes.Equal(got, val(0)) {
			t.Errorf("the first value read %q after 100 more calls, want %q", got, val(0))
		}
	})
	tc.env.Run()
}

// TestBackupAheadIsNeverOK: an append or a resync install that names a
// seq below the backup's own position is not a replay — the primary is
// behind its backup. It is counted and refused; the replay of the last
// append stays the idempotent ack it was, and neither moves the backup.
func TestBackupAheadIsNeverOK(t *testing.T) {
	tc := newTestCluster(t, 59, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, backup := reps[0], tc.nodes[reps[1]]
	reg := obs.NewRegistry()
	backup.SetObs(reg)
	ahead := reg.Counter("cluster.backup_ahead")
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		for i := 1; i <= 3; i++ {
			if err := putAt(p, tc.nodes[prim], "k", []byte{byte(i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		c, k, v := at(backup), []byte("k"), []byte("other bytes")
		for _, tcase := range []struct {
			what string
			call func() error
			want string
			cnt  int64
		}{
			{"replay of the last append", func() error { return c.Replicate(p, 0, 1, int32(prim), 3, k, v) }, "ok", 0},
			{"append below the backup's seq", func() error { return c.Replicate(p, 0, 1, int32(prim), 2, k, v) }, "error", 1},
			{"resync install at the backup's seq", func() error { return c.Install(p, 0, 1, int32(prim), 3, nil) }, "ok", 1},
			{"resync install below the backup's seq", func() error { return c.Install(p, 0, 1, int32(prim), 1, nil) }, "error", 2},
		} {
			if err := tcase.call(); outcome(err) != tcase.want || ahead.Value() != tcase.cnt {
				t.Errorf("%s answered %v with cluster.backup_ahead at %d, want %s and %d", tcase.what, err, ahead.Value(), tcase.want, tcase.cnt)
			}
			if got := backup.shards[0].seq; got != 3 {
				t.Errorf("%s moved the backup to seq %d", tcase.what, got)
			}
		}
	})
	tc.env.Run()
}

// fanOutNs is the median duration of the replication fan-out on its own —
// one append shipped to both backups and both answers gathered: the hop,
// the backup's commit and the reply of the slower of two concurrent
// Replicate calls — on the cluster medianPutSizeNs measures.
func fanOutNs(t *testing.T, size int) int64 {
	t.Helper()
	tc := newTestCluster(t, 23, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	var durs []int64
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		n, val := tc.nodes[prim], make([]byte, size)
		for i := 0; i < 8; i++ {
			putAt(p, n, "k", val) // dials the sessions, starts the lanes
		}
		st := n.shards[0]
		st.mu.Lock(p)
		defer st.mu.Unlock()
		for i := 0; i < 9; i++ {
			start := p.Now()
			n.ship(st, st.seq+1, []byte("k"), val)
			if acks, stale := n.gather(p, st); acks != 2 || stale {
				t.Errorf("fan-out %d: %d acks, stale %v", i, acks, stale)
				return
			}
			durs = append(durs, int64(p.Now()-start))
			if err := n.applyWrite(p, st, []byte("k"), val, st.seq+1, false); err != nil {
				t.Error(err)
				return
			}
		}
	})
	tc.env.Run()
	if len(durs) == 0 {
		t.Fatal("no fan-out completed")
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// TestPutOverlapsCommitWithReplication pins the write path's cost line:
// the primary commits while its backups do, so what RF 3 adds to an
// unloaded put over RF 1 is what is left of the fan-out once the
// primary's own commit has run beside it — under 0.6 × the fan-out (a
// backup's hop is about as long as its commit). A primary that commits
// first and ships afterwards pays the whole fan-out on top (1.0 ×).
func TestPutOverlapsCommitWithReplication(t *testing.T) {
	for _, size := range []int{128, 16 << 10} {
		rf1, rf3, fan := medianPutSizeNs(t, 1, 0, size), medianPutSizeNs(t, 3, 0, size), fanOutNs(t, size)
		extra := rf3 - rf1
		t.Logf("%d B put: rf1 %d ns, rf3 %d ns, fan-out alone %d ns: RF 3 adds %.2f × the fan-out", size, rf1, rf3, fan, float64(extra)/float64(fan))
		if 10*extra > 6*fan {
			t.Errorf("%d B: RF-3 put costs %d ns over RF-1, %.2f × the replication fan-out (%d ns); want ≤ 0.6 × — "+
				"does the primary commit before it ships again?", size, extra, float64(extra)/float64(fan), fan)
		}
	}
}

// treeAckExtraNs is what RF 3 added to an unloaded put over RF 1
// (medianPutSizeNs) when a backup acked only after committing the record
// into its tree — measured on that path, by value size, with the cluster's
// hand-rolled wire encoding. cluster.hrpc's thrift framing makes a
// Replicate call and its reply longer by more than a Put's: framingExtraNs
// more, at either size, measured when the encoding alone changed.
var treeAckExtraNs = map[int]int64{128: 2304, 16 << 10: 5472}

const framingExtraNs = 12

// TestBackupAcksFromTheLog pins the backup's ack path in closed form
// (DESIGN.md §15 "The backup's ack path"): an idle backup's Replicate
// handler takes exactly the log append — CopyPerByte × the stamped
// record's length plus CommitSyncNs — and what RF 3 adds to an unloaded put
// over RF 1 is BeginTxnNs + InsertNs less than it was on the tree-ack path.
func TestBackupAcksFromTheLog(t *testing.T) {
	costs := hatkv.DefaultBackendCosts()
	tc := newTestCluster(t, 23, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	backup := tc.nodes[reps[1]]
	tc.roster[reps[1]].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		for i, size := range []int{128, 16 << 10} {
			val := make([]byte, size)
			start := p.Now()
			err := at(backup).Replicate(p, 0, 1, int32(reps[0]), int64(i+1), []byte("k"), val)
			want := sim.Time(float64(stampLen+len(val))*costs.CopyPerByte + float64(costs.CommitSyncNs))
			if got := p.Now() - start; err != nil || got != want {
				t.Errorf("%d B append: %v after %d ns, want an ack after %d ns", size, err, got, want)
			}
			p.Sleep(100_000) // the applier drains; the next append finds the store idle
		}
	})
	tc.env.Run()
	for _, size := range []int{128, 16 << 10} {
		extra := medianPutSizeNs(t, 3, 0, size) - medianPutSizeNs(t, 1, 0, size)
		if want := treeAckExtraNs[size] + framingExtraNs - costs.BeginTxnNs - costs.InsertNs; extra != want {
			t.Errorf("%d B: RF 3 adds %d ns to a put over RF 1, want %d (the tree-ack path's %d and the framing's %d less BeginTxnNs + InsertNs)",
				size, extra, want, treeAckExtraNs[size], framingExtraNs)
		}
	}
}

// TestFirstPutsRegionMoves is cluster_rf3's set-up: one client's first
// put to each of five primaries (8 shards, RF 3), whose handler dials its
// two backup sessions for longer than the client's first retransmission
// timer, so each request lands twice while its handler still reads the
// first landing in place. The NIC lands by reference, so the second
// landing writes nothing and no primary's direct region moves (each did,
// once, while landings copied). The moves that are left are the
// client's, two per duplicated request: the retransmission restages its
// header over the staging region the primary's loan still reads, which
// moves that region instead; and the first answer, whose packet took a
// copy when the primary restaged its header to answer the duplicate, is
// lent from the client's own direct region when the duplicate's answer
// lands over it. A hatdebug build lends every landing from the region's
// own bytes, so there each primary's direct region moves as it did.
func TestFirstPutsRegionMoves(t *testing.T) {
	ecfg := engine.DefaultConfig()
	ecfg.BreakerThreshold, ecfg.BreakerCooldown = 4, 500_000
	tc := newTestClusterWith(t, 1, 5, Config{Seed: 1, NShards: 8, RF: 3}, ecfg)
	srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
	for _, e := range tc.engs {
		e.SetObs(srvReg)
	}
	tc.cliEng.SetObs(cliReg)
	view := NewShardMap(tc.cfg.Seed, tc.cfg.NodeIDs, tc.cfg.NShards, tc.cfg.RF)
	var keys []string
	for j, led := 0, map[int]bool{}; len(keys) < 5 && j < 4096; j++ {
		k := fmt.Sprintf("probe-%d", j)
		if pr := int(view.Shards[ShardOf(k, tc.cfg.NShards)].Primary); !led[pr] {
			led[pr] = true
			keys = append(keys, k)
		}
	}
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		for _, k := range keys {
			if err := c.Put(p, k, make([]byte, 128)); err != nil {
				t.Fatalf("put %s: %v", k, err)
			}
		}
	})
	tc.env.Run()
	dups := srvReg.Counter("engine.dup_requests").Value()
	if len(keys) != 5 || dups == 0 {
		t.Fatalf("%d primaries put to, %d requests delivered twice: the test no longer reproduces the set-up", len(keys), dups)
	}
	srvMoves, cliMoves := int64(0), 2*dups
	if hatdebug.On {
		srvMoves, cliMoves = dups, dups
	}
	if n := srvReg.Counter("verbs.region_moves").Value(); n != srvMoves {
		t.Errorf("the primaries moved %d regions over %d duplicated requests, want %d", n, dups, srvMoves)
	}
	if n := cliReg.Counter("verbs.region_moves").Value(); n != cliMoves {
		t.Errorf("the client moved %d regions over %d duplicated requests, want %d", n, dups, cliMoves)
	}
}
