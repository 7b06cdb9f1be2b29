package lmdb

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// reachable adds every node of n's tree to set.
func reachable(n *node, set map[*node]bool) map[*node]bool {
	if n != nil && !set[n] {
		set[n] = true
		for _, c := range n.children {
			reachable(c, set)
		}
	}
	return set
}

// emptied reports whether n holds no entry and no reference, up to the
// capacity of each of its slices.
func emptied(n *node) bool {
	if len(n.keys)+len(n.vals)+len(n.children) != 0 {
		return false
	}
	for _, k := range n.keys[:cap(n.keys)] {
		if k != nil {
			return false
		}
	}
	for _, v := range n.vals[:cap(n.vals)] {
		if v != nil {
			return false
		}
	}
	for _, c := range n.children[:cap(n.children)] {
		if c != nil {
			return false
		}
	}
	return true
}

// TestFreelistNeverReusesReachableNode: under seeded interleavings of
// multi-op write txns (some aborted), read txns held across later commits
// and crashes, sync-mode changes, Flush and CrashRecover, no spare node is
// reachable from the live root, the durable root or any held snapshot; no
// node of the live tree is retired; every spare node is emptied; and every
// held snapshot rescans to what it read when it began. The run must retire
// nodes that only a reader pins and nodes that only the durable root pins,
// and reuse spares — what each of the three reclaim rules guards.
func TestFreelistNeverReusesReachableNode(t *testing.T) {
	const space = 3000
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	var readerPinned, durablePinned, reused int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, _ := Open(Options{MaxReaders: 64, Sync: SyncMode(seed % 3)})
		model := map[string]string{}
		w, _ := e.BeginWrite()
		for _, i := range rng.Perm(space)[:1500] {
			model[key(i)] = "v0"
			w.Put([]byte(key(i)), []byte("v0"))
		}
		w.Commit()
		states := map[uint64]map[string]string{e.TxnID(): maps.Clone(model)}
		type held struct {
			txn  *Txn
			want string
		}
		var snaps []held

		check := func(step int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): "+format, append([]any{seed, step, what}, args...)...)
			}
			spare := map[*node]bool{}
			for _, n := range e.spare {
				if spare[n] {
					fail("a node is on the spare list twice")
				}
				if !emptied(n) {
					fail("a spare node still holds entries or references")
				}
				spare[n] = true
			}
			roots := map[string]*node{"the live root": e.root, "the durable root": e.durableRoot}
			for i, s := range snaps {
				roots[fmt.Sprintf("held snapshot %d (txn %d)", i, s.txn.ID())] = s.txn.root
			}
			for name, root := range roots {
				for n := range reachable(root, map[*node]bool{}) {
					if spare[n] {
						fail("a spare node is reachable from %s", name)
					}
				}
			}
			live := reachable(e.root, map[*node]bool{})
			for _, r := range e.retired {
				if live[r.n] || spare[r.n] {
					fail("a retired node is in the live tree (%v) or on the spare list (%v)", live[r.n], spare[r.n])
				}
				if r.n.txn <= e.durableTxnID && e.durableTxnID < r.end {
					durablePinned++
				} else {
					readerPinned++
				}
			}
			for i, s := range snaps {
				if got := scan(s.txn); got != s.want {
					fail("held snapshot %d (txn %d) changed", i, s.txn.ID())
				}
			}
			if got := committed(t, e); got != render(model) {
				fail("the committed state at txn %d is not the model's", e.TxnID())
			}
		}

		for step := 0; step < 200; step++ {
			var what string
			switch r := rng.Intn(20); {
			case r < 4:
				what = "begin a reader"
				s, err := e.BeginRead()
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, held{s, scan(s)})
			case r < 7 && len(snaps) > 0:
				what = "end a reader"
				i := rng.Intn(len(snaps))
				if rng.Intn(2) == 0 {
					snaps[i].txn.Abort()
				} else {
					snaps[i].txn.Commit()
				}
				snaps = append(snaps[:i], snaps[i+1:]...)
			case r < 8:
				what = "change the sync mode"
				e.SetSync(SyncMode(rng.Intn(3)))
			case r < 9:
				what = "flush"
				e.Flush()
			case r < 10:
				what = "crash"
				e.CrashRecover()
				model = maps.Clone(states[e.TxnID()])
			default:
				what = "write"
				w, _ := e.BeginWrite()
				spares := len(e.spare)
				pending := maps.Clone(model)
				base := rng.Intn(space - 8)
				for j, ops := 0, 1+rng.Intn(12); j < ops; j++ {
					k := key(base + rng.Intn(8))
					if rng.Intn(4) == 0 {
						w.Delete([]byte(k))
						delete(pending, k)
					} else {
						v := fmt.Sprintf("v%d.%d", step, j)
						w.Put([]byte(k), []byte(v))
						pending[k] = v
					}
				}
				if len(e.spare) < spares {
					reused++
				}
				if rng.Intn(5) == 0 {
					what = "abort a write"
					w.Abort()
					break
				}
				w.Commit()
				model = pending
				states[e.TxnID()] = maps.Clone(model)
			}
			check(step, what)
		}
	}
	t.Logf("%d reader-pinned and %d durable-pinned retirees seen, %d write txns reused spares", readerPinned, durablePinned, reused)
	if readerPinned == 0 || durablePinned == 0 || reused == 0 {
		t.Errorf("covered %d reader-pinned and %d durable-pinned retirees, %d write txns that reused spares; want each > 0",
			readerPinned, durablePinned, reused)
	}
}

// TestNoSyncFreelistBounded: with the durable root frozen by NoSync, every
// durable node an overwrite supersedes stays retired, and everything newer
// is reused. 10 000 overwrite txns without a Flush keep retired + spare
// below the durable tree's node count plus one txn's copies.
func TestNoSyncFreelistBounded(t *testing.T) {
	e, keys := loaded(t, 2000)
	e.Flush()
	durable := len(reachable(e.durableRoot, map[*node]bool{}))
	depth := len(pathNodes(e.root, keys[0]))
	rng := rand.New(rand.NewSource(3))
	val := []byte("overwritten")
	for i := 0; i < 10_000; i++ {
		w, _ := e.BeginWrite()
		w.Put(keys[rng.Intn(len(keys))], val)
		w.Commit()
		if held := len(e.retired) + len(e.spare); held > durable+depth {
			t.Fatalf("after %d txns %d nodes are retired or spare, want ≤ %d durable + %d copied", i+1, held, durable, depth)
		}
	}
	if e.DurableTxnID() != 1 {
		t.Fatalf("durable txn %d, want NoSync to leave it at the flush", e.DurableTxnID())
	}
	t.Logf("%d durable nodes, depth %d: %d retired, %d spare", durable, depth, len(e.retired), len(e.spare))
}

// TestWarmWriteTxnAllocatesOnlyThePair: once spares are about, a write txn
// of one Put allocates the stored pair and nothing else — its Txn stays on
// the stack and each node it copies is a spare.
func TestWarmWriteTxnAllocatesOnlyThePair(t *testing.T) {
	e, keys := loaded(t, 2000)
	i := 0
	txn := func() {
		w, err := e.BeginWrite()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put(keys[i%len(keys)], []byte("value")); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		i += 7
	}
	for j := 0; j < 10; j++ {
		txn()
	}
	if a := testing.AllocsPerRun(100, txn); a != 1 {
		t.Errorf("a warmed one-Put write txn allocates %.0f objects, want 1 (the pair)", a)
	}
}
