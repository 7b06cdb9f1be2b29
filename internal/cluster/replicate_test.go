package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/trdma"
)

// quietProbeNs parks the failover monitors past the end of a test, so a
// timing assertion measures the write path alone.
const quietProbeNs = 1_000_000_000

// medianPutNs is medianPutSizeNs for a small (128 B) value.
func medianPutNs(t *testing.T, rf, down int) int64 { return medianPutSizeNs(t, rf, down, 128) }

// medianPutSizeNs is the median unloaded put latency of a size-byte value
// at replication factor rf with the last down backups of the shard
// crashed: one client, one shard, three servers, monitors parked. The
// first put waits a dead backup out and marks it suspect; the measured
// ones skip it.
func medianPutSizeNs(t *testing.T, rf, down, size int) int64 {
	t.Helper()
	tc := newTestCluster(t, 23, 3, Config{NShards: 1, RF: rf, ProbeIntervalNs: quietProbeNs})
	for _, id := range Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, rf)[rf-down:] {
		tc.roster[id].Crash()
	}
	var lats []int64
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := make([]byte, size)
		for i := 0; i < 29; i++ {
			start := p.Now()
			if err := c.Put(p, "k", val); err != nil {
				t.Errorf("rf %d put %d: %v", rf, i, err)
				return
			}
			if i >= 8 { // the first puts dial sessions and start lanes
				lats = append(lats, int64(p.Now()-start))
			}
		}
	})
	tc.env.Run()
	if len(lats) == 0 {
		t.Fatalf("rf %d: no put completed", rf)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2]
}

// TestReplicationFanOutIsParallel pins the write path's shape without
// pinning a number: what RF 3 adds to an unloaded put over RF 1 is about
// one replicate hop — what it adds with one of the two backups down and
// skipped — not two. Serial replication makes the ratio ≈ 2.
func TestReplicationFanOutIsParallel(t *testing.T) {
	rf1, one, rf3 := medianPutNs(t, 1, 0), medianPutNs(t, 3, 1), medianPutNs(t, 3, 0)
	hop := one - rf1
	if hop <= 0 {
		t.Fatalf("RF-3 put with one backup down (%d ns) not slower than RF-1 (%d ns): no replicate hop to compare against", one, rf1)
	}
	if extra := rf3 - rf1; 4*extra > 5*hop {
		t.Errorf("RF-3 put costs %d ns over RF-1, %.2f × one replicate hop (%d ns); want ≤ 1.25 × — "+
			"are the backups being replicated to one after the other again? (put p50: rf1 %d, one backup %d, rf3 %d ns)",
			extra, float64(extra)/float64(hop), hop, rf1, one, rf3)
	}
}

// putAt runs one client-style epoch-1 put of shard 0 straight through
// node n's Handle.
func putAt(p *sim.Proc, n *Node, key string, val []byte) error {
	return at(n).Put(p, 0, 1, []byte(key), val)
}

// TestPutWithCrashedBackup: the ring-first backup is dead. The put still
// acks at quorum after one call deadline (plus the failed re-dial), the
// healthy backup got its append at once instead of queueing behind the
// dead one, the dead backup is marked suspect, and the next put skips it.
func TestPutWithCrashedBackup(t *testing.T) {
	tc := newTestCluster(t, 29, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, dead, healthy := reps[0], reps[1], reps[2]
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		n := tc.nodes[prim]
		if err := putAt(p, n, "k", []byte("v1")); err != nil {
			t.Errorf("warm-up put: %v", err)
			return
		}
		tc.roster[dead].Crash()

		start := p.Now()
		var healthySeqEarly int64
		tc.env.Spawn("sampler", func(sp *sim.Proc) {
			sp.Sleep(100_000)
			healthySeqEarly = tc.nodes[healthy].shards[0].seq
		})
		err := putAt(p, n, "k", []byte("v2"))
		took := int64(p.Now() - start)
		if err != nil {
			t.Errorf("put with one dead backup of three: %v, want an ack at quorum", err)
		}
		// One deadline, then the session's two failed re-dials (2 × 90 µs
		// connect timeout + 50 µs backoff).
		if limit := callDeadlineNs + 250_000; took > limit {
			t.Errorf("put took %d ns with one dead backup, want ≤ one callDeadlineNs + re-dial = %d", took, limit)
		}
		if healthySeqEarly != 2 {
			t.Errorf("healthy backup at seq %d 100 µs into the put, want 2: its append waited behind the dead backup's", healthySeqEarly)
		}
		if !n.shards[0].suspect[dead] || n.shards[0].suspect[healthy] {
			t.Errorf("suspects after the put: %v, want only node %d", n.shards[0].suspect, dead)
		}

		start = p.Now()
		err = putAt(p, n, "k", []byte("v3"))
		if took := int64(p.Now() - start); err != nil || took > 100_000 {
			t.Errorf("next put: %v in %d ns, want an ack without waiting on the suspect backup", err, took)
		}
		if got := tc.nodes[healthy].shards[0].seq; got != 3 {
			t.Errorf("healthy backup at seq %d after three puts, want 3", got)
		}
	})
	tc.env.Run()
}

// TestPutNeverAcksPastStaleBackup: one backup has learned of a fresher
// view and answers Stale, the other acks. Whichever reply lands first (the
// slower backup is held on its shard lock for 40 µs), the put is answered
// Stale, never acked, and the primary adopts the view.
func TestPutNeverAcksPastStaleBackup(t *testing.T) {
	for _, tcase := range []struct{ stalePos, slowPos int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("stale=ring%d/slow=ring%d", tcase.stalePos, tcase.slowPos), func(t *testing.T) {
			tc := newTestCluster(t, 31, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
			reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
			prim, stale, slow := tc.nodes[reps[0]], tc.nodes[reps[tcase.stalePos]], tc.nodes[reps[tcase.slowPos]]
			tc.env.Spawn("driver", func(p *sim.Proc) {
				defer tc.env.Stop()
				if err := putAt(p, prim, "k", []byte("v1")); err != nil {
					t.Errorf("warm-up put: %v", err)
					return
				}
				stale.shards[0].adoptLearned(2, stale.self)
				tc.env.Spawn("holder", func(hp *sim.Proc) {
					st := slow.shards[0]
					st.mu.Lock(hp)
					hp.Sleep(40_000)
					st.mu.Unlock()
				})
				p.Sleep(1_000) // the holder has the lock
				if err := putAt(p, prim, "k", []byte("v2")); outcome(err) != "stale" {
					t.Errorf("put answered %v, want Stale: a backup on a fresher view must veto the ack", err)
				}
				if got := prim.shards[0].learnedEpoch; got != 2 {
					t.Errorf("primary learned epoch %d, want 2 (adopted from the stale reply)", got)
				}
			})
			tc.env.Run()
		})
	}
}

// TestClusterHintPlanTable pins what the hints of cluster.hrpc resolve
// to, verb by verb, with each caller's deadline, and that no verb of the
// IDL is missing here. A revert
// to one pinned protocol for the whole tier fails here by name.
func TestClusterHintPlanTable(t *testing.T) {
	want := map[string]struct {
		proto engine.Protocol
		busy  bool
	}{
		"ShardMap":  {engine.EagerSendRecv, false},
		"Put":       {engine.DirectWriteIMM, true},
		"Get":       {engine.DirectWriteIMM, true},
		"Replicate": {engine.DirectWriteIMM, true},
		"Census":    {engine.EagerSendRecv, false},
		"Prepare":   {engine.EagerSendRecv, false},
		"Pull":      {engine.HybridEagerRNDV, false},
		"Install":   {engine.HybridEagerRNDV, false},
	}
	tc := newTestCluster(t, 37, 1, Config{NShards: 1, RF: 1})
	client := trdma.NewSessionTransport(nil, gen.ClusterHints, tc.cliEng.Cores(), clientDeadline)
	peer := trdma.NewSessionTransport(nil, gen.ClusterHints, tc.cliEng.Cores(), peerDeadline)
	for fn := range gen.ClusterHints.FnIDs {
		w, ok := want[fn]
		if !ok {
			t.Errorf("verb %s has no row here: pin its plan in this table", fn)
			continue
		}
		got := client.Plan(fn)
		if got.Proto != w.proto || got.Busy != w.busy {
			t.Errorf("%s plans %v busy=%v, want %v busy=%v — cluster.hrpc's hints changed or bypassed",
				fn, got.Proto, got.Busy, w.proto, w.busy)
		}
		// A census is bounded tighter than any other call, so a dead
		// primary is found within a few monitor ticks.
		wantPeer := sim.Duration(callDeadlineNs)
		if fn == "Census" {
			wantPeer = sim.Duration(probeDeadlineNs)
		}
		if got.Deadline != sim.Duration(clientDeadlineNs) || peer.Plan(fn).Deadline != wantPeer {
			t.Errorf("%s is bounded by %d ns from a client and %d ns from a peer, want %d and %d",
				fn, got.Deadline, peer.Plan(fn).Deadline, clientDeadlineNs, wantPeer)
		}
	}
	// The server side follows: the sessions declare busy polling, and a
	// server that does not poll busily itself grants the connection a busy
	// dispatcher.
	reg := obs.NewRegistry()
	tc.engs[0].SetObs(reg)
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		ps := newPeerSessions(tc.cliEng, tc.roster, clientDeadline)
		if _, err := ps.client(0).Census(p, 0); err != nil {
			t.Errorf("census call: %v", err)
		}
	})
	tc.env.Run()
	if got := reg.Counter("engine.busy_dispatch").Value(); got != 1 {
		t.Errorf("engine.busy_dispatch = %d at the server, want 1: the session's declaration did not reach it", got)
	}
}

// TestHealthyClusterNeverRetransmits: 200 RF-3 puts, one in eight of them
// 16 KB, on a warmed-up fault-free 5-node cluster, monitors probing as
// usual, and the engines' retry counter does not move — a small put
// finishes inside the 50 µs base timer, and the large ones, whose tail
// reaches past it, have by then taught their connections a longer one.
// (The warm-up puts do retransmit: their handlers dial the backups'
// sessions.)
func TestHealthyClusterNeverRetransmits(t *testing.T) {
	tc := newTestCluster(t, 41, 5, Config{NShards: 8, RF: 3})
	reg := obs.NewRegistry()
	for _, e := range tc.engs {
		e.SetObs(reg)
	}
	tc.cliEng.SetObs(reg)
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		small, large := make([]byte, 128), make([]byte, 16<<10)
		retries := reg.Counter("engine.retries")
		var warm int64
		for i := 0; i < 250; i++ {
			if i == 50 { // every shard's sessions and lanes are up
				warm = retries.Value()
			}
			val := small
			if i%8 == 7 {
				val = large
			}
			if err := c.Put(p, fmt.Sprintf("key-%03d", i%50), val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if got := retries.Value() - warm; got != 0 {
			t.Errorf("engine.retries moved by %d over 200 fault-free puts, want 0", got)
		}
	})
	tc.env.Run()
}

// TestResyncInstallShipsSnapshotOnce: a backup of a shard holding 640 KB
// is marked suspect, and the primary's monitor resynchronises it with a
// whole-shard install — a rendezvous to a node whose pool has never held a
// buffer that large, so the grant alone (registering one) takes twice the
// base retransmission timer, and the snapshot longer than that to cross.
// The pushing node sends the install once: the timer does not run over the
// silence the message's own size explains.
func TestResyncInstallShipsSnapshotOnce(t *testing.T) {
	tc := newTestCluster(t, 47, 3, Config{NShards: 1, RF: 3})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, lagging := reps[0], reps[1]
	reg := obs.NewRegistry()
	tc.engs[prim].SetObs(reg)
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := make([]byte, 16<<10)
		for i := 0; i < 40; i++ {
			if err := c.Put(p, fmt.Sprintf("key-%02d", i), val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		n := tc.nodes[prim]
		retries, shipped := reg.Counter("engine.retries"), reg.Counter("engine.bytes_sent.Write-RNDV")
		r0, b0 := retries.Value(), shipped.Value()
		n.shards[0].suspect[lagging] = true
		for i := 0; n.Stats().Resyncs == 0; i++ {
			if i == 40 {
				t.Errorf("no resync within 40 probe intervals (%d retransmissions so far)", retries.Value()-r0)
				return
			}
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		if n.shards[0].suspect[lagging] {
			t.Error("backup still suspect after the install was acknowledged")
		}
		if got := shipped.Value() - b0; got < 512<<10 || got > 700<<10 {
			t.Errorf("the install shipped %d bytes by rendezvous, want the one 640 KB snapshot", got)
		}
		if got := retries.Value() - r0; got != 0 {
			t.Errorf("engine.retries moved by %d on the pushing node, want 0: a healthy install was re-sent", got)
		}
	})
	tc.env.Run()
}

// TestDeadPeerDialDoesNotBlockHealthyPeer: while one process is stuck
// dialing a crashed peer, a call to a healthy peer on the same session
// cache completes in one round trip.
func TestDeadPeerDialDoesNotBlockHealthyPeer(t *testing.T) {
	tc := newTestCluster(t, 43, 2, Config{NShards: 1, RF: 1, ProbeIntervalNs: quietProbeNs})
	const dead, healthy = 0, 1
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		ps := newPeerSessions(tc.cliEng, tc.roster, clientDeadline)
		clients := []*gen.ClusterClient{ps.client(dead), ps.client(healthy)}
		call := func(cp *sim.Proc, peer int) (int64, error) {
			start := cp.Now()
			_, err := clients[peer].ShardMap(cp)
			return int64(cp.Now() - start), err
		}
		warm, err := call(p, healthy) // dials
		if err != nil {
			t.Errorf("warm-up call: %v", err)
			return
		}
		rtt, err := call(p, healthy)
		if err != nil || rtt >= warm {
			t.Errorf("second call %d ns (%v), first %d ns: no established round trip to compare against", rtt, err, warm)
			return
		}
		tc.roster[dead].Crash()
		var deadTook int64
		var deadErr error
		tc.env.Spawn("dialer", func(dp *sim.Proc) { deadTook, deadErr = call(dp, dead) })
		p.Sleep(10_000) // the dialer is inside its first connect attempt
		got, err := call(p, healthy)
		if err != nil || got != rtt {
			t.Errorf("call to the healthy peer took %d ns (%v) while a dead peer was being dialed, want the idle round trip %d ns", got, err, rtt)
		}
		p.Sleep(1_000_000)
		if !errors.Is(deadErr, engine.ErrPeerDown) || deadTook < got {
			t.Errorf("call to the crashed peer: %v after %d ns, want ErrPeerDown after its re-dials", deadErr, deadTook)
		}
	})
	tc.env.Run()
}

// TestGetStoreErrorIsNotAbsence: a read that fails in the store (here:
// every lmdb reader slot is taken) must not come back as "key absent".
// Once the store recovers the value is there; a key that really is absent
// is still the typed ErrNotFound.
func TestGetStoreErrorIsNotAbsence(t *testing.T) {
	cfg := Config{NShards: 1, RF: 1, ProbeIntervalNs: quietProbeNs}
	tc := newTestCluster(t, 47, 1, cfg)
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c.Put(p, "k", []byte("v")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		var pinned []*lmdb.Txn
		for {
			txn, err := tc.stores[0].Env().BeginRead()
			if err != nil {
				if !errors.Is(err, lmdb.ErrReadersFull) {
					t.Errorf("pinning readers: %v", err)
				}
				break
			}
			pinned = append(pinned, txn)
		}
		if _, err := at(tc.nodes[0]).Get(p, 0, 1, []byte("k")); outcome(err) != "error" {
			t.Errorf("handler reply with a failing store: %v, want an error", err)
		}
		if v, err := c.Get(p, "k"); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("get with a failing store: %q, %v — an acked key must not read as absent", v, err)
		}
		for _, txn := range pinned {
			txn.Abort()
		}
		if v, err := c.Get(p, "k"); err != nil || string(v) != "v" {
			t.Errorf("get after the store recovered: %q, %v", v, err)
		}
		if _, err := c.Get(p, "absent"); !errors.Is(err, ErrNotFound) {
			t.Errorf("get of an absent key: %v, want ErrNotFound", err)
		}
	})
	tc.env.Run()
}

// TestShardsOfOneNodeShareStoreCommits: the shard lock serializes one
// shard's puts, but puts of different shards — and the applied appends of
// other nodes' shards, which a backup's applier moves from its log into
// the tree — meet in the one SyncFull store of a node and share its write
// txns (hatkv's write queue, and the applier's batches). Grouping must not
// disturb the per-shard order: once every store has settled, every replica
// is at seq = puts and its tree holds the shard's last value. Twelve
// shards, not two: a group forms only behind a commit in flight, so it
// takes three writers in one store at the same moment to make one.
func TestShardsOfOneNodeShareStoreCommits(t *testing.T) {
	const shards, puts = 12, 10
	tc := newTestCluster(t, 37, 3, Config{NShards: shards, RF: 3, ProbeIntervalNs: quietProbeNs})
	before := make([]lmdb.Stats, len(tc.stores))
	for i, s := range tc.stores {
		before[i] = s.Env().Stats
	}
	done := 0
	settle := func() {
		settled := 0
		for i, store := range tc.stores {
			store := store
			tc.roster[i].Spawn("settle", func(p *sim.Proc) {
				if err := store.Settle(p); err != nil {
					t.Errorf("settling store %d: %v", i, err)
				}
				if settled++; settled == len(tc.stores) {
					tc.env.Stop()
				}
			})
		}
	}
	for s := 0; s < shards; s++ {
		s := s
		prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, s, 3)[0]
		tc.roster[prim].Spawn(fmt.Sprintf("shard-%d", s), func(p *sim.Proc) {
			c := at(tc.nodes[prim])
			for i := 1; i <= puts; i++ {
				if err := c.Put(p, int32(s), 1, []byte("k"), []byte(fmt.Sprintf("v%d-%d", s, i))); err != nil {
					t.Errorf("shard %d put %d: %v", s, i, err)
					return
				}
			}
			if done++; done == shards {
				settle()
			}
		})
	}
	tc.env.Run()
	if done != shards {
		t.Fatalf("%d of %d shard writers finished", done, shards)
	}
	for i, store := range tc.stores {
		if n := len(store.Logged()); n != 0 {
			t.Errorf("node %d: %d pairs still logged after Settle", i, n/2)
		}
		st := store.Env().Stats
		commits := st.Commits - before[i].Commits
		t.Logf("node %d: %d writes in %d store commits", i, shards*puts, commits)
		if commits >= shards*puts || st.SyncedCommits != st.Commits {
			t.Errorf("node %d: %d store commits (%d synced of %d) for %d writes, want fewer commits than writes, all synced",
				i, commits, st.SyncedCommits, st.Commits, shards*puts)
		}
		txn, err := store.Env().BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		defer txn.Abort()
		for s := 0; s < shards; s++ {
			if got := tc.nodes[i].shards[s].seq; got != puts {
				t.Errorf("node %d shard %d at seq %d, want %d", i, s, got, puts)
			}
			rec, err := txn.Get([]byte(dataPrefix(s) + "k"))
			e, seq, v, _ := readStamp(rec)
			if want := fmt.Sprintf("v%d-%d", s, puts); err != nil || string(v) != want || e != 1 || seq != puts {
				t.Errorf("node %d shard %d holds %q@e%d/s%d (%v), want %q@e1/s%d", i, s, v, e, seq, err, want, puts)
			}
		}
	}
}

// TestLowerEpochHearsayLeavesRoutingAlone: a shard's two backups have been
// installed into different later views, one at epoch 5 and one at epoch 3,
// and its epoch-1 primary, which has heard of neither, takes a put. Both
// backups veto the append with their views and gather folds the answers in
// ring order — so in the first case the epoch-3 hearsay arrives after the
// epoch-5 one and must leave it alone. Everything goes through Handle:
// the installs in, the put in, the routing view out (the stale reply and
// ShardMap), so an adoptLearned that assigns unconditionally shows here
// as a primary serving epoch 3.
func TestLowerEpochHearsayLeavesRoutingAlone(t *testing.T) {
	for _, epochs := range [][2]int64{{5, 3}, {3, 5}} { // ring-first backup's view, ring-second's
		t.Run(fmt.Sprintf("ring1=e%d/ring2=e%d", epochs[0], epochs[1]), func(t *testing.T) {
			tc := newTestCluster(t, 37, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
			reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
			prim := tc.nodes[reps[0]]
			wantPrimary := int32(reps[1])
			if epochs[1] > epochs[0] {
				wantPrimary = int32(reps[2])
			}
			tc.env.Spawn("driver", func(p *sim.Proc) {
				defer tc.env.Stop()
				for i, e := range epochs {
					b := reps[i+1]
					if err := at(tc.nodes[b]).Install(p, 0, e, int32(b), 0, nil); err != nil {
						t.Fatalf("install of epoch %d on node %d: %v", e, b, err)
					}
				}
				err := putAt(p, prim, "k", []byte("v"))
				if s, ok := err.(*gen.Stale); !ok || s.Epoch != 5 || s.Primary != wantPrimary {
					t.Errorf("put answered %v, want the epoch-5 view of node %d", err, wantPrimary)
				}
				rs, err := at(prim).ShardMap(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := rs.Shards[0]; got.Epoch != 5 || got.Primary != wantPrimary {
					t.Errorf("primary now routes to (epoch %d, node %d), want (5, %d): lower-epoch hearsay overwrote a higher one", got.Epoch, got.Primary, wantPrimary)
				}
			})
			tc.env.Run()
		})
	}
}
