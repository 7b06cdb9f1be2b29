package cluster

import (
	"fmt"
	"strings"
	"testing"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
)

// holdWriters takes lmdb's one writer slot in each of envs: their
// appliers' batches fail, so every append stays logged until the slots
// are released and something settles the store.
func holdWriters(t *testing.T, envs ...*lmdb.Env) (release func()) {
	t.Helper()
	var held []*lmdb.Txn
	for _, env := range envs {
		txn, err := env.BeginWrite()
		if err != nil {
			t.Errorf("holding a writer slot: %v", err)
			continue
		}
		held = append(held, txn)
	}
	return func() {
		for _, txn := range held {
			txn.Abort()
		}
	}
}

// TestPromotedBackupServesAppendedWrites: the shard's records are in every
// tree at old values when both backups stop applying; the client then
// overwrites them, so the new values are acked from the backups' logs
// alone. The primary dies, and a backup that still holds those appends
// unapplied wins the candidacy. Its snapshot settles the log first, so the
// promoted primary's gets and the install it ships to the other survivor
// carry every acked put — not the tree's older values.
func TestPromotedBackupServesAppendedWrites(t *testing.T) {
	tc := newTestCluster(t, 89, 3, Config{NShards: 1, RF: 3})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim := reps[0]
	keys := []string{"a", "b", "c"}
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		for _, k := range keys {
			if err := c.Put(p, k, []byte("old-"+k)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		p.Sleep(50_000) // the backups' appliers put the old values into their trees
		release := holdWriters(t, tc.stores[reps[1]].Env(), tc.stores[reps[2]].Env())
		for i, k := range keys {
			if err := c.Put(p, k, []byte(fmt.Sprintf("new-%s-%d", k, i))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		release()
		for _, b := range reps[1:] {
			if n := len(tc.stores[b].Logged()) / 2; n != len(keys) {
				t.Errorf("backup %d holds %d appends unapplied, want %d", b, n, len(keys))
				return
			}
		}
		tc.roster[prim].Crash()
		for tick := 0; tc.totalPromotions() == 0; tick++ {
			if tick == 40 {
				t.Error("no backup promoted within 40 probe intervals")
				return
			}
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		for i, k := range keys {
			want := fmt.Sprintf("new-%s-%d", k, i)
			if v, err := c.Get(p, k); err != nil || string(v) != want {
				t.Errorf("get %s from the promoted backup: %q, %v; want %q", k, v, err, want)
			}
			for _, b := range reps[1:] {
				if _, rest := shardDump(t, tc.stores[b]); !strings.Contains(rest, " "+k+"="+want+"@") {
					t.Errorf("survivor %d holds%s after the install, want %s=%s", b, rest, k, want)
				}
			}
		}
	})
	tc.env.Run()
}

// TestInstallNotOvertakenByAppend: a backup holds k=v1 at seq 1 in its log
// only when a resync install of seq 2, k=v2, lands. The install settles the
// log before it writes, so when the backup's applier next runs, nothing of
// the shard older than the install is left to apply on top of it.
func TestInstallNotOvertakenByAppend(t *testing.T) {
	tc := newTestCluster(t, 97, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, b := reps[0], reps[1]
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		release := holdWriters(t, tc.stores[b].Env())
		if err := putAt(p, tc.nodes[prim], "k", []byte("v1")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		release()
		if n := len(tc.stores[b].Logged()) / 2; n != 1 {
			t.Errorf("backup holds %d appends unapplied, want 1", n)
			return
		}
		k, v := dataPair(dataPrefix(0), []byte("k"), 1, 2, []byte("v2"))
		rec := &gen.Pair{Key: k, Value: v}
		if err := at(tc.nodes[b]).Install(p, 0, 1, int32(prim), 2, []*gen.Pair{rec}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		if err := tc.stores[b].Settle(p); err != nil {
			t.Error(err)
			return
		}
		if pos, rest := shardDump(t, tc.stores[b]); pos != "e1/s2" || !strings.HasSuffix(rest, ": k=v2@e1/s2") {
			t.Errorf("backup holds %s %s, want e1/s2 with the install's k=v2", pos, rest)
		}
	})
	tc.env.Run()
}

// TestAuditReadsTheLog: the audit helpers read a store as a cold restart
// recovers it. A backup whose appends are all still logged — its tree
// holds none of the shard — is at the primary's position, holds every
// acked key, and ties with the primary for authority.
func TestAuditReadsTheLog(t *testing.T) {
	tc := newTestCluster(t, 101, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, b := reps[0], tc.stores[reps[1]]
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		release := holdWriters(t, b.Env())
		defer release()
		for _, k := range []string{"a", "b"} {
			if err := putAt(p, tc.nodes[prim], k, []byte("v")); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
		}
		if _, rest := shardDump(t, b); b.Env().Entries() != 0 || len(b.Logged()) != 4 || rest != "p-1: a=v@e1/s1 b=v@e1/s2" {
			t.Errorf("backup tree holds %d entries, log %d pairs, dump %q: want both puts logged only", b.Env().Entries(), len(b.Logged())/2, rest)
			return
		}
		if e, s := ShardPosition(b, 0); e != 1 || s != 2 {
			t.Errorf("ShardPosition of the backup: e%d/s%d, want e1/s2", e, s)
		}
		for _, k := range []string{"a", "b"} {
			if !StoreHas(b, 0, k) {
				t.Errorf("StoreHas(backup, %s) = false for a logged acked put", k)
			}
		}
		if StoreHas(b, 0, "c") {
			t.Error("StoreHas(backup, c) = true for a key never written")
		}
		if a := ShardAuthority(tc.cfg, tc.stores, 0); a != prim {
			t.Errorf("authority %d, want the primary %d (tied with its backup at e1/s2, first in ring order)", a, prim)
		}
	})
	tc.env.Run()
}
