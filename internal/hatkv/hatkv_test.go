package hatkv_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

func setup(seed int64) (*sim.Env, *simnet.Cluster) {
	env := sim.NewEnv(seed)
	cfg := simnet.DefaultConfig()
	cfg.Nodes = 3
	return env, simnet.NewCluster(env, cfg)
}

func TestStoreHintTuning(t *testing.T) {
	env, cl := setup(1)
	_ = env
	// Function hints carry concurrency=128 + throughput goal → NoSync +
	// widened reader table.
	tuned, err := hatkv.NewStore(cl.Node(0), hatkv.FunctionHints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Env().Sync() != lmdb.NoSync {
		t.Fatalf("sync mode = %d, want NoSync for throughput goal", tuned.Env().Sync())
	}
	if tuned.Env().MaxReaders() != 130 {
		t.Fatalf("max readers = %d, want 130 (concurrency hint + 2)", tuned.Env().MaxReaders())
	}
	// No hints → stock configuration.
	stock, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stock.Env().Sync() != lmdb.SyncFull {
		t.Fatalf("stock store tuned unexpectedly: %+v", stock.Env())
	}
}

func TestEndToEndKVOperations(t *testing.T) {
	env, cl := setup(2)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	sh := hatkv.FunctionHints()
	store, err := hatkv.NewStore(cl.Node(0), sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	hatkv.Serve(srvEng, sh, store)

	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), sh, nil)
		c := kvgen.NewHatKVClient(tr)

		if err := c.Put(p, "alpha", []byte("value-1")); err != nil {
			t.Error(err)
		}
		v, err := c.Get(p, "alpha")
		if err != nil || string(v) != "value-1" {
			t.Errorf("Get = %q, %v", v, err)
		}
		// Missing key surfaces the declared KVError exception.
		_, err = c.Get(p, "missing")
		if err == nil {
			t.Error("missing key did not error")
		} else if _, ok := err.(*kvgen.KVError); !ok {
			t.Errorf("error type %T, want *kvgen.KVError", err)
		}

		pairs := make([]*kvgen.KVPair, 10)
		keys := make([]string, 10)
		for i := range pairs {
			keys[i] = fmt.Sprintf("batch-%02d", i)
			pairs[i] = &kvgen.KVPair{Key: keys[i], Value: []byte{byte(i), byte(i * 2)}}
		}
		if err := c.MultiPut(p, pairs); err != nil {
			t.Error(err)
		}
		vals, err := c.MultiGet(p, keys)
		if err != nil || len(vals) != 10 {
			t.Fatalf("MultiGet = %d vals, %v", len(vals), err)
		}
		for i, v := range vals {
			if !bytes.Equal(v, pairs[i].Value) {
				t.Errorf("vals[%d] = %v", i, v)
			}
		}
		env.Stop()
	})
	env.Run()
	if store.Env().Stats.Commits != 2 { // one Put + one MultiPut txn
		t.Fatalf("commits = %d, want 2 (MultiPut batches into one txn)", store.Env().Stats.Commits)
	}
}

// TestConcurrentWritersSerialized: the write queue groups writers the
// same way outside SyncFull, so 40 Puts from 8 concurrent writers over
// RPC are fewer than 40 commits, and every Put lands.
func TestConcurrentWritersSerialized(t *testing.T) {
	for _, mode := range []lmdb.SyncMode{lmdb.NoSync, lmdb.SyncMeta} {
		env, cl := setup(3)
		srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
		sh := hatkv.FunctionHints()
		store, err := hatkv.NewStore(cl.Node(0), sh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Env().SetSync(mode); err != nil {
			t.Fatal(err)
		}
		hatkv.Serve(srvEng, sh, store)
		engs := []*engine.Engine{
			engine.New(cl.Node(1), engine.DefaultConfig()),
			engine.New(cl.Node(2), engine.DefaultConfig()),
		}
		done := 0
		for i := 0; i < 8; i++ {
			i := i
			env.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				tr := trdma.Dial(p, engs[i%2], cl.Node(0), sh, nil)
				c := kvgen.NewHatKVClient(tr)
				for j := 0; j < 5; j++ {
					if err := c.Put(p, fmt.Sprintf("k-%d-%d", i, j), []byte("v")); err != nil {
						t.Errorf("sync mode %d writer %d: %v", mode, i, err)
						return
					}
				}
				done++
			})
		}
		env.Run()
		if done != 8 {
			t.Fatalf("sync mode %d: %d writers finished", mode, done)
		}
		if st := store.Env().Stats; st.Commits >= 40 || st.Puts != 40 {
			t.Fatalf("sync mode %d: commits %d puts %d, want fewer than 40 commits and 40 puts", mode, st.Commits, st.Puts)
		}
	}
}

// ack is one acknowledged PutTxn as its writer saw it.
type ack struct {
	key, val string
	txn      uint64
}

// groupWriters runs writers × puts direct PutTxn calls against a fresh
// stock (SyncFull) store, all writers starting at time 0, and returns the
// store and every ack. Each ack is checked against the durable root at
// the moment it is delivered.
func groupWriters(t *testing.T, seed int64, writers, puts int, key func(w, j int) string) (*hatkv.Store, []ack) {
	t.Helper()
	env, cl := setup(seed)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var acks []ack
	for w := 0; w < writers; w++ {
		w := w
		cl.Node(0).Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for j := 0; j < puts; j++ {
				k, v := key(w, j), fmt.Sprintf("v-%d-%d", w, j)
				txn, err := store.PutTxn(p, k, []byte(v))
				if err != nil {
					t.Errorf("writer %d put %d: %v", w, j, err)
					return
				}
				if d := store.Env().DurableTxnID(); txn == 0 || txn > d {
					t.Errorf("writer %d put %d acked at txn %d, durable root is %d", w, j, txn, d)
				}
				acks = append(acks, ack{k, v, txn})
			}
		})
	}
	env.Run()
	env.Shutdown()
	return store, acks
}

func readBack(t *testing.T, store *hatkv.Store, key string) string {
	t.Helper()
	txn, err := store.Env().BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	v, err := txn.Get([]byte(key))
	if err != nil {
		t.Fatalf("read back %s: %v", key, err)
	}
	return string(v)
}

// TestGroupCommitSharesSyncedCommit: under SyncFull the writers that
// queue behind a commit share the next one.
func TestGroupCommitSharesSyncedCommit(t *testing.T) {
	store, acks := groupWriters(t, 5, 8, 5, func(w, j int) string { return fmt.Sprintf("k-%d-%d", w, j) })
	if len(acks) != 40 {
		t.Fatalf("%d acks, want 40", len(acks))
	}
	st := store.Env().Stats
	if st.Commits >= 40 || st.SyncedCommits != st.Commits || st.Puts != 40 {
		t.Fatalf("commits %d synced %d puts %d, want fewer than 40 commits, all synced, 40 puts", st.Commits, st.SyncedCommits, st.Puts)
	}
	for _, a := range acks {
		if got := readBack(t, store, a.key); got != a.val {
			t.Errorf("%s = %q, want %q", a.key, got, a.val)
		}
	}
}

// TestGroupCommitSameKeyLaterArrivalWins: ops of one group apply in
// arrival order and are acked with the one txn id they share.
func TestGroupCommitSameKeyLaterArrivalWins(t *testing.T) {
	// Writer 0 leads alone; 1 and 2 queue behind it and form a group.
	store, acks := groupWriters(t, 6, 3, 1, func(w, j int) string {
		if w == 0 {
			return "other"
		}
		return "same"
	})
	if len(acks) != 3 {
		t.Fatalf("%d acks, want 3", len(acks))
	}
	if acks[1].txn != acks[2].txn || acks[0].txn == acks[1].txn {
		t.Fatalf("txn ids %d %d %d, want writers 1 and 2 to share one that writer 0 does not", acks[0].txn, acks[1].txn, acks[2].txn)
	}
	if got := readBack(t, store, "same"); got != "v-2-0" {
		t.Fatalf("same = %q, want the later arrival's v-2-0", got)
	}
	if c := store.Env().Stats.Commits; c != 2 {
		t.Fatalf("commits = %d, want 2", c)
	}
}

// TestGroupCommitDeterministic: grouping is decided by sim-clock arrival
// order alone, so one seed gives one commit history.
func TestGroupCommitDeterministic(t *testing.T) {
	run := func() (int64, uint64) {
		store, _ := groupWriters(t, 7, 8, 5, func(w, j int) string { return fmt.Sprintf("k-%d", (w*5+j)%11) })
		return store.Env().Stats.Commits, store.Env().TxnID()
	}
	c1, id1 := run()
	c2, id2 := run()
	if c1 != c2 || id1 != id2 {
		t.Fatalf("same seed: commits %d vs %d, final txn id %d vs %d", c1, c2, id1, id2)
	}
}

// TestGroupCommitUnloadedTiming pins what an uncontended writer pays, the
// number the benchmark reads as hatkv.put_sim_ns: begin 150 + insert
// 1 500 + copy 0.1/B + synced commit 4 000.
func TestGroupCommitUnloadedTiming(t *testing.T) {
	env, cl := setup(8)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1000)
	pairs := make([]*kvgen.KVPair, 10)
	for i := range pairs {
		pairs[i] = &kvgen.KVPair{Key: fmt.Sprintf("m-%d", i), Value: val}
	}
	env.Spawn("solo", func(p *sim.Proc) {
		start := p.Now()
		if err := store.Put(p, "k", val); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != 5750 {
			t.Errorf("solo Put took %d ns, want 5750", got)
		}
		start = p.Now()
		if err := store.MultiPut(p, pairs); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != 20150 {
			t.Errorf("solo MultiPut×10 took %d ns, want 20150", got)
		}
	})
	env.Run()
}

// TestGroupCommitCrashMidGroup: the server loses power while a leader is
// applying an 8-writer group. Nothing of the group was acked, nothing
// acked is lost, and the crashed boot's queue does not leak into the next
// one — its writers all finish (a surviving "commit in flight" mark parks
// them forever).
func TestGroupCommitCrashMidGroup(t *testing.T) {
	env, cl := setup(9)
	node := cl.Node(0)
	store, err := hatkv.NewStore(node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var acks []ack
	finished := map[int]int{} // boot → writers that completed
	boot := func(epoch int) {
		// Writer 0 commits alone at 1 950 ns; writers 1–8 queue behind it
		// and the first of them then leads all eight, committing after
		// 150 + 8×1 500 + 300 at 14 400 ns.
		for w := 0; w < 9; w++ {
			w := w
			node.Spawn(fmt.Sprintf("b%d-w%d", epoch, w), func(p *sim.Proc) {
				for j := 0; j < 3; j++ {
					k, v := fmt.Sprintf("k-%d-%d-%d", epoch, w, j), fmt.Sprintf("v-%d", j)
					txn, err := store.PutTxn(p, k, []byte(v))
					if err != nil {
						t.Errorf("boot %d writer %d: %v", epoch, w, err)
						return
					}
					acks = append(acks, ack{k, v, txn})
				}
				finished[epoch]++
			})
		}
	}
	boot(0)
	node.SetRestart(func(p *sim.Proc) { boot(1) })
	plan := cl.InstallCrashes(simnet.CrashConfig{
		Nodes: []int{0}, MeanUptimeNs: 1, MinUptimeNs: 10_000, RestartDelayNs: 50_000, HorizonNs: 10_500,
	})
	if ev := plan.Events(); len(ev) != 1 || ev[0].At < 2_100 || ev[0].At > 14_400 {
		t.Fatalf("crash schedule %+v, want one crash while the 8-writer group is being applied", ev)
	}
	env.Run()
	env.Shutdown()

	if store.Recoveries != 1 || store.LostTxns != 0 {
		t.Fatalf("recoveries %d lost txns %d, want 1 and 0 (SyncFull)", store.Recoveries, store.LostTxns)
	}
	if a := store.Env().Stats.Aborts; a != 1 {
		t.Fatalf("aborts = %d, want 1: the crash did not land inside the group's write txn", a)
	}
	if finished[0] != 0 || finished[1] != 9 {
		t.Fatalf("writers finished: boot 0 %d, boot 1 %d; want 0 and 9", finished[0], finished[1])
	}
	if len(acks) != 1+27 {
		t.Fatalf("%d acks, want 28: writer 0's solo put before the crash and all 27 after", len(acks))
	}
	for _, a := range acks {
		if got := readBack(t, store, a.key); got != a.val {
			t.Errorf("acked %s = %q, want %q", a.key, got, a.val)
		}
	}
}

// TestGroupCommitKilledLeaderHandsOff: only the leader dies (no crash, so
// nothing resets the queue). Killed in its inserts, its deferred hand-off
// wakes the next head, which leads the dead leader's followers. Killed in
// its sync, it has committed and handed on already, so its deferred settle
// acks its group with the shared txn id.
func TestGroupCommitKilledLeaderHandsOff(t *testing.T) {
	// Writer 0 commits alone at 1 950 ns; writer 1 then leads 1–3, in its
	// inserts until 6 600 ns and in its sync from 6 900 to 10 600 ns.
	for _, tc := range []struct {
		name      string
		killAt    sim.Time
		ownPutNow bool // the killed leader's put is in the store
	}{
		{"inserts", 4_000, false},
		{"sync", 8_000, true},
	} {
		env, cl := setup(10)
		store, err := hatkv.NewStore(cl.Node(0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var procs []*sim.Proc
		acked := map[int]uint64{}
		for w := 0; w < 4; w++ {
			w := w
			procs = append(procs, env.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				txn, err := store.PutTxn(p, fmt.Sprintf("k-%d", w), []byte("v"))
				if err != nil {
					t.Errorf("%s: writer %d: %v", tc.name, w, err)
					return
				}
				acked[w] = txn
			}))
		}
		env.At(tc.killAt, func() { env.Kill(procs[1]) })
		env.Run()
		env.Shutdown()
		if len(acked) != 3 || acked[0] != 1 || acked[2] != 2 || acked[3] != 2 {
			t.Fatalf("%s: acks %v, want writer 0 at txn 1 and writers 2 and 3 sharing txn 2", tc.name, acked)
		}
		txn, err := store.Env().BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Get([]byte("k-1")); (err == nil) != tc.ownPutNow {
			t.Errorf("%s: killed leader's own put: %v, want it present %v", tc.name, err, tc.ownPutNow)
		}
		txn.Abort()
	}
}

// TestSyncOutsideWriter: a leader syncs after it has handed the writer on.
// Three writers start at once; writer 0 commits alone at 150 + 1 500 + 300
// = 1 950 ns, and writers 1 and 2 begin their shared txn right then, so it
// commits at 1 950 + 150 + 2×1 500 + 300 = 5 400 ns whatever the mode.
// Each group is acked only when its own sync — the mode's commit cost
// beyond a NoSync one — has ended.
func TestSyncOutsideWriter(t *testing.T) {
	costs := hatkv.DefaultBackendCosts()
	for _, mode := range []lmdb.SyncMode{lmdb.SyncFull, lmdb.SyncMeta, lmdb.NoSync} {
		syncNs := map[lmdb.SyncMode]int64{
			lmdb.SyncFull: costs.CommitSyncNs - costs.CommitNoNs,
			lmdb.SyncMeta: costs.CommitMetaNs - costs.CommitNoNs,
		}[mode]
		env, cl := setup(13)
		store, err := hatkv.NewStore(cl.Node(0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Env().SetSync(mode); err != nil {
			t.Fatal(err)
		}
		ackAt := map[int]sim.Time{}
		for w := 0; w < 3; w++ {
			w := w
			env.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				if err := store.Put(p, fmt.Sprintf("k-%d", w), []byte("v")); err != nil {
					t.Error(err)
				}
				ackAt[w] = p.Now()
			})
		}
		commitsAt := map[sim.Time]int64{}
		for _, at := range []sim.Time{1_949, 1_951, 5_399, 5_401} {
			env.At(at, func() { commitsAt[at] = store.Env().Stats.Commits })
		}
		env.Run()
		env.Shutdown()
		want := map[sim.Time]int64{1_949: 0, 1_951: 1, 5_399: 1, 5_401: 2}
		for at, c := range want {
			if commitsAt[at] != c {
				t.Errorf("sync mode %d: %d commits at %d ns, want %d", mode, commitsAt[at], at, c)
			}
		}
		soloAck, groupAck := sim.Time(1_950+syncNs), sim.Time(5_400+syncNs)
		if ackAt[0] != soloAck || ackAt[1] != groupAck || ackAt[2] != groupAck {
			t.Errorf("sync mode %d: acks at %v, want writer 0 at %d and writers 1 and 2 at %d", mode, ackAt, soloAck, groupAck)
		}
	}
}

// TestGroupCommitObs: the two write-queue histograms.
func TestGroupCommitObs(t *testing.T) {
	env, cl := setup(11)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	for w := 0; w < 4; w++ {
		w := w
		env.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			if err := store.Put(p, fmt.Sprintf("k-%d", w), []byte("v")); err != nil {
				t.Error(err)
			}
		})
	}
	env.Run()
	env.Shutdown()
	// One solo commit, then one group of three that all waited for its
	// begin, insert and commit — 1 950 ns, not its sync.
	ops, wait := reg.Histogram("hatkv.commit_group_ops").Sample(), reg.Histogram("hatkv.write_wait_ns").Sample()
	if ops.N() != 2 || ops.Min() != 1 || ops.Max() != 3 {
		t.Errorf("commit_group_ops n=%d min=%v max=%v, want 2 groups of 1 and 3", ops.N(), ops.Min(), ops.Max())
	}
	if wait.N() != 3 || wait.Min() != 1950 || wait.Max() != 1950 {
		t.Errorf("write_wait_ns n=%d min=%v max=%v, want 3 waits of 1950", wait.N(), wait.Min(), wait.Max())
	}
	store.SetObs(nil) // detaches
}

// TestStoreErrorsAreTyped: all four operations report a failing backend
// as the declared KVError, never as a raw lmdb error.
func TestStoreErrorsAreTyped(t *testing.T) {
	env, cl := setup(12)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.Env().Close()
	env.Spawn("caller", func(p *sim.Proc) {
		_, getErr := store.Get(p, "k")
		_, mgetErr := store.MultiGet(p, []string{"k"})
		for name, err := range map[string]error{
			"Get":      getErr,
			"Put":      store.Put(p, "k", []byte("v")),
			"MultiGet": mgetErr,
			"MultiPut": store.MultiPut(p, []*kvgen.KVPair{{Key: "k", Value: []byte("v")}}),
		} {
			var kvErr *kvgen.KVError
			if !errors.As(err, &kvErr) || kvErr.Message != lmdb.ErrEnvClosed.Error() {
				t.Errorf("%s on a closed env: %T %v, want *kvgen.KVError carrying %q", name, err, err, lmdb.ErrEnvClosed)
			}
		}
	})
	env.Run()
}

func TestServiceOnlyHintsStripFunctionLevel(t *testing.T) {
	svc := hatkv.ServiceOnlyHints()
	full := hatkv.FunctionHints()
	if len(svc.FnIDs) != len(full.FnIDs) {
		t.Fatal("fn ids lost")
	}
	for name, set := range svc.Functions {
		if !set.Empty() {
			t.Errorf("function %s kept hints in service-only table", name)
		}
	}
	// Service-level hints retained.
	if svc.Service.Shared["concurrency"] != "128" {
		t.Error("service-level concurrency hint lost")
	}
}

func TestPreload(t *testing.T) {
	_, cl := setup(4)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Preload(100, func(i int) string { return fmt.Sprintf("pre-%03d", i) }, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	txn, err := store.Env().BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	v, err := txn.Get([]byte("pre-050"))
	if err != nil || string(v) != "seed" {
		t.Fatalf("preloaded Get = %q, %v", v, err)
	}
	if store.Env().Entries() != 100 {
		t.Fatalf("entries = %d", store.Env().Entries())
	}
}

// TestStoreReadsAreStable: Get and MultiGet hand out the stored slices
// themselves, which is sound only while nothing ever writes to a stored
// value in place. What a reader holds must read the same after the key is
// overwritten — by a solo writer (whose value lmdb copies) and by a commit
// group (whose parked copies lmdb keeps) — and after the node crashes and
// the store recovers.
func TestStoreReadsAreStable(t *testing.T) {
	env, cl := setup(12)
	store, err := hatkv.NewStore(cl.Node(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	old := func(k string) []byte { return bytes.Repeat([]byte(k), 100) }
	env.Spawn("reader", func(p *sim.Proc) {
		for _, k := range keys {
			if err := store.Put(p, k, old(k)); err != nil {
				t.Fatal(err)
			}
		}
		one, err := store.Get(p, "a")
		if err != nil {
			t.Fatal(err)
		}
		many, err := store.MultiGet(p, keys)
		if err != nil {
			t.Fatal(err)
		}
		check := func(after string) {
			t.Helper()
			if !bytes.Equal(one, old("a")) {
				t.Errorf("a Get result changed after %s", after)
			}
			for i, k := range keys {
				if !bytes.Equal(many[i], old(k)) {
					t.Errorf("MultiGet result %d changed after %s", i, after)
				}
			}
		}

		if err := store.Put(p, "a", bytes.Repeat([]byte("X"), 100)); err != nil {
			t.Fatal(err)
		}
		check("a solo overwrite")

		// Four writers at once: the first leads alone, the rest park and
		// share the next commit.
		done := 0
		for w := 0; w < 4; w++ {
			cl.Node(0).Spawn(fmt.Sprintf("w%d", w), func(wp *sim.Proc) {
				pairs := []*kvgen.KVPair{}
				for _, k := range keys {
					pairs = append(pairs, &kvgen.KVPair{Key: k, Value: bytes.Repeat([]byte{byte('0' + w)}, 100)})
				}
				if err := store.MultiPut(wp, pairs); err != nil {
					t.Error(err)
				}
				done++
			})
		}
		for done < 4 {
			p.Sleep(1_000)
		}
		if g := store.Env().Stats.Commits; g >= 3+1+4 {
			t.Errorf("%d commits: the four writers did not share one", g)
		}
		check("a commit group overwrote every key")

		cl.Node(0).Crash()
		if store.Recoveries != 1 {
			t.Errorf("recoveries = %d after the crash", store.Recoveries)
		}
		check("crash recovery")
	})
	env.Run()
	env.Shutdown()
}
