package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
)

// shardDump renders what store durably holds of shard 0 — what
// "byte-identical replicas" compares: pos is its durable position
// (durablePosition), rest the meta record's primary (p-1 without one), a
// colon and every record with its stamp, the tree's overlaid with the
// log's, as a cold restart would recover them.
func shardDump(t *testing.T, store *hatkv.Store) (pos, rest string) {
	t.Helper()
	m := durablePosition(store, 0, shardMeta{Epoch: 1, Primary: -1})
	txn, err := store.Env().BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	prefix := dataPrefix(0)
	recs := map[string][]byte{}
	for c := txn.Seek([]byte(prefix)); c.Valid() && strings.HasPrefix(string(c.Key()), prefix); c.Next() {
		recs[string(c.Key())] = c.Value()
	}
	logged := store.Logged()
	for i := 0; i < len(logged); i += 2 {
		if strings.HasPrefix(string(logged[i]), prefix) {
			recs[string(logged[i])] = logged[i+1]
		}
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "p%d:", m.Primary)
	for _, k := range keys {
		e, s, v, ok := readStamp(recs[k])
		if !ok {
			t.Fatalf("record %q is %d bytes: no stamp", k, len(recs[k]))
		}
		fmt.Fprintf(&b, " %s=%s@e%d/s%d", k[len(prefix):], v, e, s)
	}
	return fmt.Sprintf("e%d/s%d", m.Epoch, m.Seq), b.String()
}

// hasMeta reports whether store holds shard 0's meta record.
func hasMeta(t *testing.T, store *hatkv.Store) bool {
	t.Helper()
	txn, err := store.Env().BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	_, err = txn.Get([]byte(metaKey(0)))
	return err == nil
}

// TestBackupRestartResumesFromStamps: a shard that never saw a promise or
// an install has no meta record anywhere, so its position lives only in
// the stamps of its records. A backup rebooted after N puts recovers seq
// N from them and applies append N+1 as the next one: no resync.
func TestBackupRestartResumesFromStamps(t *testing.T) {
	const puts = 5
	tc := newTestCluster(t, 79, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, backup := reps[0], reps[1]
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		n := tc.nodes[prim]
		for i := 1; i <= puts+1; i++ {
			if i == puts+1 {
				tc.roster[backup].Crash()
				tc.roster[backup].Restart()
				p.Sleep(1_000) // booted
				if st := tc.nodes[backup].shards[0]; st.epoch != 1 || st.seq != puts || hasMeta(t, tc.stores[backup]) {
					t.Errorf("rebooted backup at e%d/s%d, meta record %v; want e1/s%d from the stamps alone",
						st.epoch, st.seq, hasMeta(t, tc.stores[backup]), puts)
				}
			}
			if err := putAt(p, n, "k", []byte{byte('0' + i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if st := tc.nodes[backup].shards[0]; st.seq != puts+1 || n.stats.Resyncs != 0 || n.shards[0].suspect[backup] {
			t.Errorf("after the next put: backup at seq %d, %d resyncs, suspect %v; want seq %d, no resync",
				st.seq, n.stats.Resyncs, n.shards[0].suspect[backup], puts+1)
		}
	})
	tc.env.Run()
}

// TestOldEpochStampsDoNotAdvance: a deposed primary's orphan — a record it
// committed at epoch 1 under a seq no backup ever saw — survives the
// epoch-2 resync install, since installs only overwrite. Rebooted, the
// node is at the install's position, not at the orphan's stamp, so the new
// primary's next append is applied there instead of being taken for a
// replay of the orphan.
func TestOldEpochStampsDoNotAdvance(t *testing.T) {
	tc := newTestCluster(t, 83, 3, Config{NShards: 1, RF: 3})
	old := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c.Put(p, "k", []byte("v1")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		n, st := tc.nodes[old], tc.nodes[old].shards[0]
		st.mu.Lock(p)
		err := n.applyWrite(p, st, []byte("orphan"), []byte("x"), st.seq+1, false)
		st.mu.Unlock()
		if err != nil {
			t.Errorf("orphan write: %v", err)
			return
		}
		tc.roster[old].Crash()
		wait := func(what string, done func() bool) bool {
			for tick := 0; !done(); tick++ {
				if tick == 40 {
					t.Errorf("%s: not within 40 probe intervals", what)
					return false
				}
				p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
			}
			return true
		}
		if !wait("promotion", func() bool { return tc.totalPromotions() > 0 }) {
			return
		}
		tc.roster[old].Restart()
		if !wait("resync of the old primary", func() bool { return tc.nodes[old].shards[0].epoch == 2 }) {
			return
		}
		tc.roster[old].Crash()
		tc.roster[old].Restart()
		p.Sleep(1_000) // booted
		if pos, rest := shardDump(t, tc.stores[old]); pos != "e2/s1" || !strings.Contains(rest, " orphan=x@e1/s2") {
			t.Errorf("rebooted old primary holds %s %s; want e2/s1 beside the orphan stamped e1/s2", pos, rest)
		}
		if err := c.Put(p, "k", []byte("v2")); err != nil {
			t.Errorf("put through the new primary: %v", err)
			return
		}
		// A put whose first attempt outlived the client's deadline (the lane
		// to the rebooted node re-dials) is applied again under the next seq.
		at := fmt.Sprintf("e2/s%d", tc.nodes[c.View().Shards[0].Primary].shards[0].seq)
		if pos, rest := shardDump(t, tc.stores[old]); pos != at || !strings.Contains(rest, " k=v2@"+at) {
			t.Errorf("old primary holds %s %s after the new primary's appends; want k=v2@%s applied", pos, rest, at)
		}
	})
	tc.env.Run()
}

// totalPromotions sums the current boots' won candidacies.
func (tc *testCluster) totalPromotions() (n int64) {
	for _, nd := range tc.nodes {
		n += nd.stats.Promotions
	}
	return n
}

// TestRestartedPrimaryReelects: a primary of a replicated shard that
// reboots before anyone noticed it was gone does not resume. It answers
// Fenced, wins a candidacy at its monitor's first tick (one promotion,
// its own), and serves at epoch 2 from then on.
func TestRestartedPrimaryReelects(t *testing.T) {
	tc := newTestCluster(t, 61, 3, Config{NShards: 1, RF: 3})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		if err := c.Put(p, "k", []byte("v1")); err != nil {
			t.Errorf("put before the restart: %v", err)
			return
		}
		tc.roster[prim].Crash()
		tc.roster[prim].Restart()
		p.Sleep(1_000) // booted
		n := tc.nodes[prim]
		if err := at(n).Put(p, 0, 1, []byte("k"), nil); outcome(err) != "fenced" {
			t.Errorf("a put at the rebooted primary answered %v, want Fenced", err)
		}
		if _, err := at(n).Get(p, 0, 1, []byte("k")); outcome(err) != "fenced" {
			t.Errorf("a get at the rebooted primary answered %v, want Fenced", err)
		}
		if err := c.Put(p, "k", []byte("v2")); err != nil {
			t.Errorf("put after the restart: %v", err)
		}
		if got := n.stats.Promotions; got != 1 || tc.totalPromotions() != 1 {
			t.Errorf("promotions: %d at the restarted primary, %d in all, want 1 and 1", got, tc.totalPromotions())
		}
		for i, nd := range tc.nodes {
			if st := nd.shards[0]; st.epoch != 2 || st.primary != prim {
				t.Errorf("node %d at epoch %d under primary %d, want epoch 2 under %d", i, st.epoch, st.primary, prim)
			}
		}
		if v, err := c.Get(p, "k"); err != nil || string(v) != "v2" {
			t.Errorf("get: %q, %v", v, err)
		}
	})
	tc.env.Run()
}

// TestRF1RestartResumesAtOnce: a shard without backups has nobody to be
// behind. Its restarted primary serves the first request after boot, at
// epoch 1, and never runs a candidacy.
func TestRF1RestartResumesAtOnce(t *testing.T) {
	tc := newTestCluster(t, 67, 1, Config{NShards: 1, RF: 1})
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		if err := putAt(p, tc.nodes[0], "k", []byte("v1")); err != nil {
			t.Errorf("put before the restart: %v", err)
		}
		tc.roster[0].Crash()
		tc.roster[0].Restart()
		p.Sleep(1_000)
		if err := putAt(p, tc.nodes[0], "k", []byte("v2")); err != nil {
			t.Errorf("first put after the restart: %v, want an ack at once", err)
		}
		// Nor does a failed commit fence it: nothing was shipped, so the seq
		// was seen by nobody and is named again.
		held, err := tc.stores[0].Env().BeginWrite()
		if err != nil {
			t.Error(err)
			return
		}
		failed := putAt(p, tc.nodes[0], "k", []byte("v3"))
		held.Abort()
		if err := putAt(p, tc.nodes[0], "k", []byte("v3")); outcome(failed) != "error" || err != nil {
			t.Errorf("put with a failing commit, then the next: %v, %v — want an error, then an ack", failed, err)
		}
		p.Sleep(sim.Duration(4 * tc.cfg.ProbeIntervalNs))
		if st, s := tc.nodes[0].shards[0], tc.nodes[0].stats; st.epoch != 1 || st.seq != 3 || s.Candidacies != 0 || s.FencedWrites != 0 {
			t.Errorf("after the restart: epoch %d seq %d, %+v — want epoch 1, seq 3 and no candidacy", st.epoch, st.seq, s)
		}
	})
	tc.env.Run()
}

// TestLocalApplyFailureAfterShipFences: the primary's store refuses the
// write txn (the test holds lmdb's one writer slot) after the append went
// out. The put answers an error and the shard is fenced — the seq is on
// the backups, so it is burnt; the monitor's next tick re-elects, the
// candidacy adopts a backup's copy, and the value the client was never
// acked for is then what all three replicas hold and serve.
func TestLocalApplyFailureAfterShipFences(t *testing.T) {
	tc := newTestCluster(t, 71, 3, Config{NShards: 1, RF: 3})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		n := tc.nodes[prim]
		if err := putAt(p, n, "k", []byte("v1")); err != nil {
			t.Errorf("warm-up put: %v", err)
			return
		}
		held, err := tc.stores[prim].Env().BeginWrite()
		if err != nil {
			t.Error(err)
			return
		}
		err = putAt(p, n, "k", []byte("v2"))
		held.Abort()
		st := n.shards[0]
		if outcome(err) != "error" || st.seq != 1 || st.leads(prim) {
			t.Errorf("put with a failing local commit: %v, primary at seq %d, leads %v — want an error, seq 1, fenced", err, st.seq, st.leads(prim))
		}
		if err := putAt(p, n, "k", []byte("v3")); outcome(err) != "fenced" {
			t.Errorf("next put: %v, want Fenced: seq 2 is on the backups and must not be named again", err)
		}
		p.Sleep(sim.Duration(3 * tc.cfg.ProbeIntervalNs))
		if n.stats.Promotions != 1 || !st.leads(prim) || st.epoch != 2 {
			t.Errorf("after the monitor ran: %d promotions, epoch %d, leads %v — want a won candidacy at epoch 2", n.stats.Promotions, st.epoch, st.leads(prim))
		}
		if v, err := at(n).Get(p, 0, 2, []byte("k")); err != nil || string(v) != "v2" {
			t.Errorf("get at the re-elected primary: %q, %v, want v2 (the shipped append, adopted from a backup)", v, err)
		}
		for i, store := range tc.stores {
			if pos, rest := shardDump(t, store); pos != "e2/s2" || rest != fmt.Sprintf("p%d: k=v2@e1/s2", prim) {
				t.Errorf("store %d holds %s %s", i, pos, rest)
			}
		}
	})
	tc.env.Run()
}

var syncName = map[lmdb.SyncMode]string{lmdb.SyncFull: "SyncFull", lmdb.SyncMeta: "SyncMeta"}

// crashRun is one schedule of TestPutCrashPointsConverge and
// TestBackupCrashPointsConverge.
type crashRun struct {
	sync   lmdb.SyncMode
	first  bool  // the interrupted put is the shard's first append: no record yet
	offset int64 // crash the victim this long after the put's handler entered; < 0: never
	late   bool  // restart it after a survivor promoted, not inside the detector window
	backup bool  // the victim is the ring-first backup, not the primary
}

// run plays the schedule on a 3-node, 1-shard RF-3 cluster: a writer on
// the primary's own node (it dies with it, so nothing replays its bytes)
// puts k=v2 straight through the handler, the victim is crashed offset ns
// in and restarted, a client then writes k=v3 until acked, and the cluster
// is left to settle. Throughout, a sampler reads every store's durable
// position and k every 2 µs — less than a commit, so it sees every state
// a replica stays in. When the victim is a backup, the put's ack must also
// find k=v2 at the shard authority the audit picks (ShardAuthority). It
// returns how long the uninterrupted put takes.
func (r crashRun) run(t *testing.T) (putNs int64) {
	tc := newTestCluster(t, 73, 3, Config{NShards: 1, RF: 3})
	for _, s := range tc.stores {
		if err := s.Env().SetSync(r.sync); err != nil {
			t.Fatal(err)
		}
	}
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, victim := reps[0], reps[0]
	if r.backup {
		victim = reps[1]
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s first=%v crash of node %d at +%d ns late=%v: %s", syncName[r.sync], r.first, victim, r.offset, r.late, fmt.Sprintf(format, args...))
	}

	// No replica ever holds two different contents under one (epoch, seq).
	content := map[string]string{}
	observe := func() {
		for i, s := range tc.stores {
			pos, rest := shardDump(t, s)
			_, recs, _ := strings.Cut(rest, ":")
			if was, seen := content[pos]; !seen {
				content[pos] = recs
			} else if was != recs && was != "reported" {
				fail("store %d holds%s at %s, where a replica held%s", i, recs, pos, was)
				content[pos] = "reported"
			}
		}
	}
	tc.env.Spawn("sampler", func(p *sim.Proc) {
		for {
			observe()
			p.Sleep(2_000)
		}
	})

	started := sim.NewSignal(tc.env)
	tc.roster[prim].Spawn("writer", func(p *sim.Proc) {
		n := tc.nodes[prim]
		for _, b := range reps[1:] { // dial the sessions the lanes will use
			if _, err := n.client(b).Census(p, 0); err != nil {
				fail("dialing backup %d: %v", b, err)
			}
		}
		for i := 0; !r.first && i < 3; i++ {
			if err := putAt(p, n, "k", []byte("v1")); err != nil {
				fail("warm-up put: %v", err)
			}
		}
		start := p.Now()
		started.Fire()
		err := putAt(p, n, "k", []byte("v2"))
		putNs = int64(p.Now() - start)
		if r.backup && err == nil {
			auth := ShardAuthority(tc.cfg, tc.stores, 0)
			if _, rest := shardDump(t, tc.stores[auth]); !StoreHas(tc.stores[auth], 0, "k") || !strings.Contains(rest, " k=v2@") {
				fail("k=v2 was acked, and the authority, store %d, holds%s", auth, rest)
			}
		}
	})
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		started.Wait(p)
		if r.offset < 0 {
			p.Sleep(100_000)
			return
		}
		p.Sleep(sim.Duration(r.offset))
		tc.roster[victim].Crash()
		if r.late {
			for tick := 0; tc.totalPromotions() == 0; tick++ {
				if tick == 40 {
					fail("no survivor promoted within 40 probe intervals")
					return
				}
				p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
			}
		} else {
			p.Sleep(50_000)
		}
		tc.roster[victim].Restart()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		acked := false
		for try := 0; try < 8 && !acked; try++ {
			acked = c.Put(p, "k", []byte("v3")) == nil
		}
		if !acked {
			fail("the put after the restart was never acked")
			return
		}
		image := func(i int) string {
			pos, rest := shardDump(t, tc.stores[i])
			if r.backup {
				// A resync install leaves a meta record on the backup it
				// brought back, naming the primary the others name by default.
				_, rest, _ = strings.Cut(rest, ":")
			}
			return pos + " " + rest
		}
		for tick := 0; tick < 40 && (image(0) != image(1) || image(1) != image(2)); tick++ {
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		observe()
		if !strings.Contains(image(0), " k=v3@") {
			fail("store 0 holds %q: the acked k=v3 is not there", image(0))
		}
		for i := 1; i < 3; i++ {
			if image(i) != image(0) {
				fail("store %d holds %q, store 0 %q", i, image(i), image(0))
			}
		}
	})
	tc.env.Run()
	return putNs
}

// TestPutCrashPointsConverge enumerates the first window of
// ROADMAP item 14: the primary of a put dies at every 250 ns between its
// handler's entry and its reply — before the append left, after it left and
// before the primary's own commit, between the commit and the last backup's
// answer, after the reply — and comes back either before the failure
// detector fired or after a survivor took over. A different value is then
// written to the same key. Whatever the point: the acked write is on all
// three replicas, their stores are byte-identical for the shard, and no
// (epoch, seq) ever named two contents. SyncMeta may lose what was acked
// before the crash (its contract), never what was acked after the restart.
// Without the boot fence the early restarts in the window between the
// append's departure and the primary's own commit end [v3 v2 v2].
func TestPutCrashPointsConverge(t *testing.T) {
	// A put that returns sooner than the primary's own commit costs did not
	// run the write path, and there would be nothing to enumerate.
	costs := hatkv.DefaultBackendCosts()
	commitNs := map[lmdb.SyncMode]int64{lmdb.SyncFull: costs.CommitSyncNs, lmdb.SyncMeta: costs.CommitMetaNs}
	schedules := 0
	for _, sync := range []lmdb.SyncMode{lmdb.SyncFull, lmdb.SyncMeta} {
		for _, first := range []bool{false, true} {
			whole := crashRun{sync: sync, first: first, offset: -1}.run(t)
			if whole < commitNs[sync] || whole > 60_000 {
				t.Fatalf("%s first=%v: the uninterrupted put took %d ns: nothing to enumerate", syncName[sync], first, whole)
			}
			for off := int64(0); off <= whole+250; off += 250 {
				for _, late := range []bool{false, true} {
					crashRun{sync: sync, first: first, offset: off, late: late}.run(t)
					schedules++
				}
			}
		}
	}
	t.Logf("%d crash schedules", schedules)
}

// TestBackupCrashPointsConverge is TestPutCrashPointsConverge with the
// ring-first backup as the victim, on the same 250 ns grid across one put
// and on across the backup's applier group after it: before its append
// arrived, inside the append's log write, after its ack while the pair is
// only logged, and while its applier puts it into the tree. The put is
// acked by the quorum the other two make, the authority the audit picks
// holds it at that moment, and after the restart the replicas converge on
// the client's acked k=v3, no (epoch, seq) ever naming two contents.
// SyncMeta may lose the crashed backup's unapplied appends (an unsynced
// commit's fate); the resync install brings them back.
func TestBackupCrashPointsConverge(t *testing.T) {
	costs := hatkv.DefaultBackendCosts()
	apply := costs.BeginTxnNs + costs.InsertNs + costs.CommitSyncNs
	schedules := 0
	for _, sync := range []lmdb.SyncMode{lmdb.SyncFull, lmdb.SyncMeta} {
		for _, first := range []bool{false, true} {
			whole := crashRun{sync: sync, first: first, offset: -1, backup: true}.run(t)
			if whole <= 0 || whole > 60_000 {
				t.Fatalf("%s first=%v: the uninterrupted put took %d ns: nothing to enumerate", syncName[sync], first, whole)
			}
			for off := int64(0); off <= whole+apply+250; off += 250 {
				crashRun{sync: sync, first: first, offset: off, backup: true}.run(t)
				schedules++
			}
		}
	}
	t.Logf("%d crash schedules", schedules)
}
