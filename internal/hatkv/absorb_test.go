package hatkv_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// absorbKeys is the key space of TestGroupAbsorbsSupersededPairs: small,
// so a group writes most keys more than once.
var absorbKeys = []string{"a", "b", "c", "d", "e", "f"}

// writeOp is one writer's op: a Put when multi is false (one pair), else a
// MultiPut.
type writeOp struct {
	multi bool
	pairs []*kvgen.KVPair
}

// randomOps draws n ops over absorbKeys. Every value is distinct and its
// length a multiple of 10 B, so the copy charge is a whole number of ns.
func randomOps(rng *rand.Rand, n int) []writeOp {
	ops := make([]writeOp, n)
	for i := range ops {
		np := 1
		if rng.Intn(2) == 0 {
			ops[i].multi, np = true, 2+rng.Intn(4)
		}
		for j := 0; j < np; j++ {
			v := []byte(strings.Repeat(fmt.Sprintf("%d.%d;", i, j), 50)[:10*(1+rng.Intn(20))])
			ops[i].pairs = append(ops[i].pairs, &kvgen.KVPair{Key: absorbKeys[rng.Intn(len(absorbKeys))], Value: v})
		}
	}
	return ops
}

// lastWrites is what a write txn applying ops keeps: the last value each
// key is given, by key.
func lastWrites(ops []writeOp) map[string][]byte {
	last := map[string][]byte{}
	for _, op := range ops {
		for _, kv := range op.pairs {
			last[kv.Key] = kv.Value
		}
	}
	return last
}

// groupCharge is what one write txn applying ops costs on the simulated
// clock, the sync aside: begin, one insert per distinct key plus the copy
// of the values applied, and a NoSync commit.
func groupCharge(c hatkv.BackendCosts, ops []writeOp) sim.Time {
	last := lastWrites(ops)
	applied := 0
	for _, v := range last {
		applied += len(v)
	}
	return sim.Time(c.BeginTxnNs) + sim.Time(float64(len(last))*float64(c.InsertNs)+float64(applied)*c.CopyPerByte) + sim.Time(c.CommitNoNs)
}

// dumpEnv renders every key and value of env's newest tree.
func dumpEnv(t *testing.T, env *lmdb.Env) string {
	t.Helper()
	txn, err := env.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	var b strings.Builder
	for c := txn.Seek(nil); c.Valid(); c.Next() {
		fmt.Fprintf(&b, "%q=%q\n", c.Key(), c.Value())
	}
	return b.String()
}

// serialDump is the store that preloading absorbKeys with "pre" and then
// applying ops one by one, each in its own write txn, leaves behind.
func serialDump(t *testing.T, ops []writeOp) string {
	t.Helper()
	env, err := lmdb.Open(lmdb.Options{Sync: lmdb.SyncFull})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(pairs []*kvgen.KVPair) {
		txn, err := env.BeginWrite()
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range pairs {
			if err := txn.Put([]byte(kv.Key), kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range absorbKeys {
		apply([]*kvgen.KVPair{{Key: k, Value: []byte("pre")}})
	}
	for _, op := range ops {
		apply(op.pairs)
	}
	return dumpEnv(t, env)
}

// TestGroupAbsorbsSupersededPairs: a group applies and charges only the
// last pair it writes to each key, whether the earlier ones came from
// other ops or from the same MultiPut. Each seed starts 3–9 writers at
// once on a stock (SyncFull) store preloaded with absorbKeys: writer 0
// commits alone (a MultiPut's own duplicates are absorbed there too), and
// the rest queue behind it and share the next txn.
func TestGroupAbsorbsSupersededPairs(t *testing.T) {
	costs := hatkv.DefaultBackendCosts()
	syncNs := sim.Time(costs.CommitSyncNs - costs.CommitNoNs)
	type result struct {
		at  sim.Time
		txn uint64
	}
	var sawBatchDup, sawCrossDup bool
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 3+rng.Intn(7))
		solo, group := ops[:1], ops[1:]
		t0 := groupCharge(costs, solo)
		t1 := t0 + groupCharge(costs, group)
		pairs := 0
		for i, op := range ops {
			pairs += len(op.pairs)
			if len(lastWrites(ops[i:i+1])) < len(op.pairs) {
				sawBatchDup = true
			}
		}
		distinct := len(lastWrites(solo)) + len(lastWrites(group))
		opsPerKey := map[string]int{}
		for _, op := range group {
			for k := range lastWrites([]writeOp{op}) {
				if opsPerKey[k]++; opsPerKey[k] == 2 {
					sawCrossDup = true
				}
			}
		}

		// run drives the writers, with the server crashing at crashAt
		// when it is non-zero, and returns the store, its registry and
		// every writer's ack.
		run := func(crashAt sim.Time) (*hatkv.Store, *obs.Registry, map[int]result) {
			env, cl := setup(seed)
			node := cl.Node(0)
			store, err := hatkv.NewStore(node, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Preload(len(absorbKeys), func(i int) string { return absorbKeys[i] }, []byte("pre")); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			store.SetObs(reg)
			acks := map[int]result{}
			for w, op := range ops {
				node.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
					var txn uint64
					var err error
					if op.multi {
						err = store.MultiPut(p, op.pairs)
					} else {
						txn, err = store.PutTxn(p, op.pairs[0].Key, op.pairs[0].Value)
					}
					if err != nil {
						t.Errorf("seed %d writer %d: %v", seed, w, err)
						return
					}
					acks[w] = result{p.Now(), txn}
				})
			}
			if crashAt > 0 {
				env.At(crashAt, node.Crash)
			}
			env.Run()
			env.Shutdown()
			return store, reg, acks
		}

		store, reg, acks := run(0)
		if got, want := dumpEnv(t, store.Env()), serialDump(t, ops); got != want {
			t.Errorf("seed %d: store holds\n%s\nserial application holds\n%s", seed, got, want)
		}
		// Txn 1 is the preload's, of one put per key.
		if st := store.Env().Stats; st.Commits != 3 || store.Env().TxnID() != 3 || st.Puts != int64(len(absorbKeys)+distinct) {
			t.Errorf("seed %d: commits %d, last txn %d, puts %d; want 3, 3, %d (the preload's, then one per distinct key of each group)",
				seed, st.Commits, store.Env().TxnID(), st.Puts, len(absorbKeys)+distinct)
		}
		if got := reg.Counter("hatkv.absorbed_pairs").Value(); got != int64(pairs-distinct) {
			t.Errorf("seed %d: absorbed_pairs %d, want %d", seed, got, pairs-distinct)
		}
		for w, op := range ops {
			want := result{t0 + syncNs, 2}
			if w > 0 {
				want = result{t1 + syncNs, 3}
			}
			if op.multi {
				want.txn = 0 // MultiPut reports no id
			}
			if got, ok := acks[w]; !ok || got != want {
				t.Errorf("seed %d writer %d acked %+v (acked %v), want %+v", seed, w, got, ok, want)
			}
		}

		// The crash lands halfway through the group's inserts.
		crashAt := t0 + sim.Time(costs.BeginTxnNs) + (t1-t0-sim.Time(costs.BeginTxnNs+costs.CommitNoNs))/2
		store, _, acks = run(crashAt)
		for w := 1; w < len(ops); w++ {
			if a, ok := acks[w]; ok {
				t.Errorf("seed %d: writer %d of the crashed group acked %+v", seed, w, a)
			}
		}
		if got, want := dumpEnv(t, store.Env()), serialDump(t, solo); got != want {
			t.Errorf("seed %d: after the crash the store holds\n%s\nbefore the group it held\n%s", seed, got, want)
		}
		if st := store.Env().Stats; store.LostTxns != 0 || st.Aborts != 1 {
			t.Errorf("seed %d: lost txns %d, aborts %d; want 0 and 1 (the group's txn)", seed, store.LostTxns, st.Aborts)
		}
	}
	if !sawBatchDup || !sawCrossDup {
		t.Errorf("seeds drew a duplicate inside one MultiPut %v, across ops %v; want both", sawBatchDup, sawCrossDup)
	}
}

// TestGroupAbsorbAllocs: absorbing costs a warmed group no allocation.
// Each round, writer 0 Puts alone and writers 1–8 park behind it with
// MultiPuts of four pairs over five keys and form one group; the round
// allocates the pair copy writer 0's Put makes and the 32 parked copies,
// nothing else.
func TestGroupAbsorbAllocs(t *testing.T) {
	env, cl := setup(14)
	node := cl.Node(0)
	store, err := hatkv.NewStore(node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	const writers, batch, keys = 9, 4, 5
	val := make([]byte, 100)
	pairs := make([][]*kvgen.KVPair, writers)
	for w := 1; w < writers; w++ {
		for j := 0; j < batch; j++ {
			pairs[w] = append(pairs[w], &kvgen.KVPair{Key: absorbKeys[(w+3*j)%keys], Value: val})
		}
	}
	start, done := sim.NewSignal(env), sim.NewSignal(env)
	for w := 0; w < writers; w++ {
		node.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for {
				start.Wait(p)
				var err error
				if w == 0 {
					err = store.Put(p, "solo", val)
				} else {
					err = store.MultiPut(p, pairs[w])
				}
				if err != nil {
					t.Error(err)
				}
				done.Fire()
			}
		})
	}
	var allocs float64
	rounds := 0
	node.Spawn("driver", func(p *sim.Proc) {
		defer env.Stop()
		round := func() {
			start.Broadcast()
			for i := 0; i < writers; i++ {
				done.Wait(p)
			}
			rounds++
		}
		for i := 0; i < 4; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(50, round)
	})
	env.Run()
	env.Shutdown()
	if c := store.Env().Stats.Commits; c != int64(2*rounds) {
		t.Fatalf("%d commits in %d rounds, want a solo commit and one group per round", c, rounds)
	}
	grouped := (writers - 1) * batch
	if got, want := reg.Counter("hatkv.absorbed_pairs").Value(), int64((grouped-keys)*rounds); got != want {
		t.Fatalf("absorbed_pairs %d, want %d (the group's %d pairs write %d keys)", got, want, grouped, keys)
	}
	if want := float64(1 + grouped); allocs > want {
		t.Errorf("a warmed round allocates %.1f objects, want ≤ %.0f: one copy per pair written", allocs, want)
	}
	t.Logf("warmed round: %.1f allocations", allocs)
}
