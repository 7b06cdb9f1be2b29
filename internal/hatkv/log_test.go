package hatkv_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
)

var syncModes = []struct {
	name string
	mode lmdb.SyncMode
}{{"SyncFull", lmdb.SyncFull}, {"SyncMeta", lmdb.SyncMeta}, {"NoSync", lmdb.NoSync}}

// appendNs is what Append charges for a value of n bytes: its copy and the
// sync mode's commit.
func appendNs(c hatkv.BackendCosts, mode lmdb.SyncMode, n int) sim.Time {
	commit := map[lmdb.SyncMode]int64{lmdb.SyncFull: c.CommitSyncNs, lmdb.SyncMeta: c.CommitMetaNs, lmdb.NoSync: c.CommitNoNs}[mode]
	return sim.Time(float64(n)*c.CopyPerByte + float64(commit))
}

// treeHas reports what the store's tree holds for key ("" when absent).
func treeHas(t *testing.T, store *hatkv.Store, key string) string {
	t.Helper()
	txn, err := store.Env().BeginRead()
	if err != nil {
		t.Error(err)
		return ""
	}
	defer txn.Abort()
	v, err := txn.Get([]byte(key))
	if err != nil && !errors.Is(err, lmdb.ErrNotFound) {
		t.Error(err)
	}
	return string(v)
}

// TestAppendTiming pins the log's two halves on an idle store: Append
// returns after exactly the value's copy and the sync mode's commit, the
// pair is then in the log and not yet in the tree (Get misses it), and
// Settle returns once the applier's group — begun as Append returned:
// begin, insert, copy, NoSync commit, sync — has put it there and emptied
// the log.
func TestAppendTiming(t *testing.T) {
	c := hatkv.DefaultBackendCosts()
	val := make([]byte, 200)
	for _, m := range syncModes {
		env, cl := setup(41)
		store, err := hatkv.NewStore(cl.Node(0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Env().SetSync(m.mode); err != nil {
			t.Fatal(err)
		}
		cl.Node(0).Spawn("writer", func(p *sim.Proc) {
			store.Append(p, []byte("k"), val)
			logged := p.Now()
			if got, want := logged, appendNs(c, m.mode, len(val)); got != want {
				t.Errorf("%s: Append returned at %d ns, want %d", m.name, got, want)
			}
			if len(store.Logged()) != 2 || treeHas(t, store, "k") != "" {
				t.Errorf("%s: after Append the log holds %d pairs and the tree %q, want the pair logged only", m.name, len(store.Logged())/2, treeHas(t, store, "k"))
			}
			if _, err := store.Get(p, "k"); !errors.Is(err, hatkv.ErrNotFound) {
				t.Errorf("%s: Get of a logged pair: %v, want ErrNotFound until it is applied", m.name, err)
			}
			if err := store.Settle(p); err != nil {
				t.Errorf("%s: Settle: %v", m.name, err)
			}
			apply := sim.Time(c.BeginTxnNs+c.InsertNs) + sim.Time(float64(len(val))*c.CopyPerByte) + appendNs(c, m.mode, 0)
			if got := p.Now(); got != logged+apply {
				t.Errorf("%s: Settle returned at %d ns, want %d (the applier's group, begun as the append returned)", m.name, got, logged+apply)
			}
			if len(store.Logged()) != 0 || treeHas(t, store, "k") != string(val) {
				t.Errorf("%s: after Settle the log holds %d pairs and the tree %d bytes, want the pair applied", m.name, len(store.Logged())/2, len(treeHas(t, store, "k")))
			}
			env.Stop()
		})
		env.Run()
	}
}

// TestAppendSurvivesCrash: a crash 1 ns after Append returned — the applier
// is in its begin charge, nothing of the pair is in the tree — leaves the
// pair in the tree under SyncFull, where the append was a synced write, and
// nowhere under SyncMeta and NoSync, where an unapplied pair is an
// unsynced commit and is lost as one is. A crash 1 ns before Append would
// have returned leaves nothing in any mode. Either way the log is empty
// after the crash, and the next boot's appends are applied again.
func TestAppendSurvivesCrash(t *testing.T) {
	c := hatkv.DefaultBackendCosts()
	val := []byte("acked-value")
	for _, m := range syncModes {
		for _, after := range []bool{true, false} {
			name := fmt.Sprintf("%s crash %s the append returned", m.name, map[bool]string{true: "after", false: "before"}[after])
			env, cl := setup(43)
			node := cl.Node(0)
			store, err := hatkv.NewStore(node, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Env().SetSync(m.mode); err != nil {
				t.Fatal(err)
			}
			returned := false
			node.Spawn("writer", func(p *sim.Proc) {
				store.Append(p, []byte("k"), val)
				returned = true
			})
			at := appendNs(c, m.mode, len(val)) - 1
			if after {
				at += 2
			}
			env.At(at, func() {
				if returned != after || treeHas(t, store, "k") != "" {
					t.Errorf("%s: at the crash the append returned=%v and the tree holds %q", name, returned, treeHas(t, store, "k"))
				}
				node.Crash()
			})
			env.At(at+1_000, func() { node.Restart() })
			node.SetRestart(func(p *sim.Proc) {
				want := ""
				if after && m.mode == lmdb.SyncFull {
					want = string(val)
				}
				if got := treeHas(t, store, "k"); got != want || len(store.Logged()) != 0 {
					t.Errorf("%s: after the crash the tree holds %q and the log %d pairs, want %q and none", name, got, len(store.Logged())/2, want)
				}
				store.Append(p, []byte("next"), val)
				if err := store.Settle(p); err != nil || treeHas(t, store, "next") != string(val) {
					t.Errorf("%s: the next boot's append was not applied: %v", name, err)
				}
				env.Stop()
			})
			env.Run()
		}
	}
}

// TestSettleRetriesARefusedBatch: while the tree refuses a write txn (the
// test holds lmdb's one writer slot), the applier's batch fails and stays
// logged, and Settle returns the refusal. Once the slot is free, Settle
// kicks the idle applier and returns with every pair applied, the later
// of two appends of one key winning.
func TestSettleRetriesARefusedBatch(t *testing.T) {
	env, cl := setup(47)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Node(0).Spawn("writer", func(p *sim.Proc) {
		defer env.Stop()
		held, err := store.Env().BeginWrite()
		if err != nil {
			t.Error(err)
			return
		}
		store.Append(p, []byte("k"), []byte("v1"))
		store.Append(p, []byte("k"), []byte("v2"))
		store.Append(p, []byte("j"), []byte("w"))
		if err := store.Settle(p); err == nil || !strings.Contains(err.Error(), lmdb.ErrWriterActive.Error()) {
			t.Errorf("Settle with the writer slot held: %v, want the refusal", err)
		}
		if n := len(store.Logged()) / 2; n != 3 {
			t.Errorf("%d pairs logged after the refused batch, want 3", n)
		}
		held.Abort()
		p.Sleep(100_000) // nothing kicks the applier meanwhile
		if n := len(store.Logged()) / 2; n != 3 {
			t.Errorf("%d pairs logged before Settle, want 3: the applier retried unkicked", n)
		}
		if err := store.Settle(p); err != nil {
			t.Errorf("Settle once the slot is free: %v", err)
		}
		if k, j := treeHas(t, store, "k"), treeHas(t, store, "j"); k != "v2" || j != "w" || len(store.Logged()) != 0 {
			t.Errorf("after Settle the tree holds k=%q j=%q and the log %d pairs, want k=v2 j=w and none", k, j, len(store.Logged())/2)
		}
	})
	env.Run()
}

// TestPutOwnedKeepsThePair: PutOwned charges what Put does, alone and
// behind a commit in flight, and the tree keeps the pair it was handed —
// the value Get returns is the caller's own slice — where Put keeps a
// copy. So does Append, once applied.
func TestPutOwnedKeepsThePair(t *testing.T) {
	env, cl := setup(53)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished := false
	kept := func(p *sim.Proc, key string, v []byte) bool {
		got, err := store.Get(p, key)
		return err == nil && len(got) > 0 && &got[0] == &v[0]
	}
	cl.Node(0).Spawn("writer", func(p *sim.Proc) {
		defer env.Stop()
		val := []byte("a value of some bytes")
		start := p.Now()
		if err := store.Put(p, "copied", val); err != nil {
			t.Fatal(err)
		}
		put := p.Now() - start
		owned := []byte("a value of some bytes")
		start = p.Now()
		if _, err := store.PutOwned(p, []byte("owned"), owned); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != put {
			t.Errorf("PutOwned took %d ns, Put %d ns", got, put)
		}
		if kept(p, "copied", val) || !kept(p, "owned", owned) {
			t.Error("Put kept the caller's slice, or PutOwned did not")
		}
		// Two writers at once: the second parks behind the first's commit.
		parked := []byte("parked")
		cl.Node(0).Spawn("first", func(p *sim.Proc) { store.Put(p, "first", val) })
		p.Sleep(1)
		start = p.Now()
		if _, err := store.PutOwned(p, []byte("parked"), parked); err != nil {
			t.Fatal(err)
		}
		if p.Now()-start <= put {
			t.Errorf("the second writer took %d ns, no longer than a lone Put: it did not park", p.Now()-start)
		}
		appended := []byte("appended")
		store.Append(p, []byte("appended"), appended)
		if err := store.Settle(p); err != nil {
			t.Fatal(err)
		}
		if !kept(p, "parked", parked) || !kept(p, "appended", appended) {
			t.Error("a parked PutOwned or an applied Append did not keep the caller's slice")
		}
		finished = true
	})
	env.Run()
	if !finished {
		t.Error("the writer never finished")
	}
}
