package lmdb

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func open(t *testing.T) *Env {
	t.Helper()
	e, err := Open(Options{MaxReaders: 16, Sync: NoSync})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func put(t *testing.T, e *Env, k, v string) {
	t.Helper()
	w, err := e.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	e := open(t)
	put(t, e, "alpha", "1")
	put(t, e, "beta", "2")
	r, err := e.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	v, err := r.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get(alpha) = %q, %v", v, err)
	}
	if _, err := r.Get([]byte("gamma")); err != ErrNotFound {
		t.Fatalf("missing key error = %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	e := open(t)
	put(t, e, "k", "old")
	put(t, e, "k", "new")
	r, _ := e.BeginRead()
	defer r.Abort()
	if v, _ := r.Get([]byte("k")); string(v) != "new" {
		t.Fatalf("Get = %q", v)
	}
	if e.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", e.Entries())
	}
}

func TestDelete(t *testing.T) {
	e := open(t)
	put(t, e, "a", "1")
	put(t, e, "b", "2")
	w, _ := e.BeginWrite()
	if err := w.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete([]byte("zzz")); err != ErrNotFound {
		t.Fatalf("delete missing = %v", err)
	}
	w.Commit()
	r, _ := e.BeginRead()
	defer r.Abort()
	if _, err := r.Get([]byte("a")); err != ErrNotFound {
		t.Fatal("deleted key still present")
	}
	if v, _ := r.Get([]byte("b")); string(v) != "2" {
		t.Fatal("sibling key lost")
	}
	if e.Entries() != 1 {
		t.Fatalf("entries = %d", e.Entries())
	}
}

func TestLargeTreeSplitsAndStaysSorted(t *testing.T) {
	e := open(t)
	w, _ := e.BeginWrite()
	const N = 5000
	perm := rand.New(rand.NewSource(1)).Perm(N)
	for _, i := range perm {
		if err := w.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	r, _ := e.BeginRead()
	defer r.Abort()
	// Every key is readable.
	for i := 0; i < N; i += 97 {
		k := fmt.Sprintf("key-%06d", i)
		v, err := r.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	// Full scan is sorted and complete.
	c := r.Seek(nil)
	count := 0
	var last []byte
	for c.Valid() {
		if last != nil && bytes.Compare(last, c.Key()) >= 0 {
			t.Fatalf("scan out of order at %q after %q", c.Key(), last)
		}
		last = append(last[:0], c.Key()...)
		count++
		c.Next()
	}
	if count != N {
		t.Fatalf("scan found %d keys, want %d", count, N)
	}
}

func TestMVCCSnapshotIsolation(t *testing.T) {
	e := open(t)
	put(t, e, "x", "v1")
	r1, _ := e.BeginRead()
	put(t, e, "x", "v2")
	put(t, e, "y", "only-after-r1")
	r2, _ := e.BeginRead()

	if v, _ := r1.Get([]byte("x")); string(v) != "v1" {
		t.Fatalf("r1 sees %q, want v1 (snapshot violated)", v)
	}
	if _, err := r1.Get([]byte("y")); err != ErrNotFound {
		t.Fatal("r1 sees future key")
	}
	if v, _ := r2.Get([]byte("x")); string(v) != "v2" {
		t.Fatalf("r2 sees %q, want v2", v)
	}
	r1.Abort()
	r2.Abort()
}

func TestSingleWriterEnforced(t *testing.T) {
	e := open(t)
	w1, err := e.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BeginWrite(); err != ErrWriterActive {
		t.Fatalf("second writer error = %v", err)
	}
	w1.Abort()
	if _, err := e.BeginWrite(); err != nil {
		t.Fatalf("writer after abort: %v", err)
	}
}

func TestMaxReadersEnforced(t *testing.T) {
	e, _ := Open(Options{MaxReaders: 2, Sync: NoSync})
	r1, err := e.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BeginRead(); err != ErrReadersFull {
		t.Fatalf("third reader error = %v", err)
	}
	r1.Abort()
	if _, err := e.BeginRead(); err != nil {
		t.Fatalf("reader after release: %v", err)
	}
	r2.Abort()
}

func TestAbortDiscardsWrites(t *testing.T) {
	e := open(t)
	put(t, e, "stable", "yes")
	w, _ := e.BeginWrite()
	w.Put([]byte("temp"), []byte("gone"))
	w.Abort()
	r, _ := e.BeginRead()
	defer r.Abort()
	if _, err := r.Get([]byte("temp")); err != ErrNotFound {
		t.Fatal("aborted write visible")
	}
	if _, err := r.Get([]byte("stable")); err != nil {
		t.Fatal("stable key lost by abort")
	}
}

func TestTxnDoneErrors(t *testing.T) {
	e := open(t)
	w, _ := e.BeginWrite()
	w.Commit()
	if err := w.Put([]byte("k"), []byte("v")); err != ErrTxnDone {
		t.Fatalf("put after commit = %v", err)
	}
	if err := w.Commit(); err != ErrTxnDone {
		t.Fatalf("double commit = %v", err)
	}
	r, _ := e.BeginRead()
	r.Abort()
	if _, err := r.Get([]byte("k")); err != ErrTxnDone {
		t.Fatalf("get after abort = %v", err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	e := open(t)
	r, _ := e.BeginRead()
	defer r.Abort()
	if err := r.Put([]byte("k"), []byte("v")); err != ErrReadOnly {
		t.Fatalf("put on reader = %v", err)
	}
	if err := r.Delete([]byte("k")); err != ErrReadOnly {
		t.Fatalf("delete on reader = %v", err)
	}
}

func TestSeekPositioning(t *testing.T) {
	e := open(t)
	w, _ := e.BeginWrite()
	for _, k := range []string{"b", "d", "f", "h"} {
		w.Put([]byte(k), []byte("v"+k))
	}
	w.Commit()
	r, _ := e.BeginRead()
	defer r.Abort()
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"h", "h"},
	}
	for _, c := range cases {
		cur := r.Seek([]byte(c.seek))
		if !cur.Valid() || string(cur.Key()) != c.want {
			t.Errorf("Seek(%q) at %q valid=%v, want %q", c.seek, cur.Key(), cur.Valid(), c.want)
		}
	}
	if cur := r.Seek([]byte("z")); cur.Valid() {
		t.Errorf("Seek past end valid at %q", cur.Key())
	}
}

// TestCursorDiesWithTxn: a cursor is valid only until its txn ends, after
// which the nodes it walked may be reused. It reports !Valid and Next
// leaves it so, and Seek on a finished txn walks nothing.
func TestCursorDiesWithTxn(t *testing.T) {
	e, keys := loaded(t, 2000)
	r, _ := e.BeginRead()
	c := r.Seek(nil)
	if !c.Valid() {
		t.Fatal("cursor on a live reader is not valid")
	}
	r.Abort()
	c.Next()
	if c.Valid() {
		t.Error("cursor stays valid after its reader ended")
	}
	if r.Seek(nil).Valid() {
		t.Error("Seek on an ended reader returns a valid cursor")
	}

	w, _ := e.BeginWrite()
	w.Put(keys[0], []byte("x"))
	wc := w.Seek(keys[0])
	if !wc.Valid() || string(wc.Value()) != "x" {
		t.Fatal("writer's cursor does not see its own put")
	}
	w.Commit()
	if wc.Valid() {
		t.Error("cursor stays valid after its writer committed")
	}
}

func TestCursorRangeScan(t *testing.T) {
	e := open(t)
	w, _ := e.BeginWrite()
	for i := 0; i < 100; i++ {
		w.Put([]byte(fmt.Sprintf("user%03d", i)), []byte{byte(i)})
	}
	w.Commit()
	r, _ := e.BeginRead()
	defer r.Abort()
	cur := r.Seek([]byte("user050"))
	var got []string
	for i := 0; i < 10 && cur.Valid(); i++ {
		got = append(got, string(cur.Key()))
		cur.Next()
	}
	if len(got) != 10 || got[0] != "user050" || got[9] != "user059" {
		t.Fatalf("range scan = %v", got)
	}
}

func TestSyncModeAccounting(t *testing.T) {
	e, _ := Open(Options{MaxReaders: 4, Sync: SyncFull})
	put2 := func() {
		w, _ := e.BeginWrite()
		w.Put([]byte("k"), []byte("v"))
		w.Commit()
	}
	put2()
	if e.Stats.SyncedCommits != 1 {
		t.Fatalf("synced commits = %d", e.Stats.SyncedCommits)
	}
	e.SetSync(NoSync)
	put2()
	if e.Stats.SyncedCommits != 1 {
		t.Fatalf("NoSync commit counted as synced")
	}
	if e.Stats.Commits != 2 {
		t.Fatalf("commits = %d", e.Stats.Commits)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Open(Options{Sync: SyncMode(9)}); err != ErrInvalidOption {
		t.Fatal("bad sync mode accepted")
	}
	e := open(t)
	if err := e.SetMaxReaders(0); err != ErrInvalidOption {
		t.Fatal("zero max readers accepted")
	}
	if err := e.SetSync(SyncMode(-1)); err != ErrInvalidOption {
		t.Fatal("bad sync accepted")
	}
}

func TestEnvClosed(t *testing.T) {
	e := open(t)
	e.Close()
	if _, err := e.BeginRead(); err != ErrEnvClosed {
		t.Fatal("read on closed env")
	}
	if _, err := e.BeginWrite(); err != ErrEnvClosed {
		t.Fatal("write on closed env")
	}
}

// Property: the store agrees with a map reference model under random
// put/delete/get sequences, and scans are always sorted.
func TestPropertyAgainstMapModel(t *testing.T) {
	f := func(ops []uint32) bool {
		e, _ := Open(Options{MaxReaders: 4, Sync: NoSync})
		model := map[string]string{}
		w, _ := e.BeginWrite()
		for _, op := range ops {
			key := fmt.Sprintf("k%03d", op%199)
			switch op % 3 {
			case 0, 1: // put
				val := fmt.Sprintf("v%d", op)
				if w.Put([]byte(key), []byte(val)) != nil {
					return false
				}
				model[key] = val
			case 2: // delete
				err := w.Delete([]byte(key))
				_, existed := model[key]
				if existed != (err == nil) {
					return false
				}
				delete(model, key)
			}
		}
		if w.Commit() != nil {
			return false
		}
		r, _ := e.BeginRead()
		defer r.Abort()
		for k, v := range model {
			got, err := r.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		// Scan must equal the sorted model keys.
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		cur := r.Seek(nil)
		var got []string
		for cur.Valid() {
			got = append(got, string(cur.Key()))
			cur.Next()
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// scan renders every pair a transaction sees, in order.
func scan(txn *Txn) string {
	var b strings.Builder
	for c := txn.Seek(nil); c.Valid(); c.Next() {
		b.Write(c.Key())
		b.WriteByte('=')
		b.Write(c.Value())
		b.WriteByte('\n')
	}
	return b.String()
}

// render is scan's form of a model state.
func render(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + m[k] + "\n")
	}
	return b.String()
}

// pathNodes returns the nodes a lookup of key visits, root first.
func pathNodes(n *node, key []byte) []*node {
	var path []*node
	for n != nil {
		path = append(path, n)
		if n.leaf {
			break
		}
		i, exact := n.find(key)
		if exact {
			i++
		}
		n = n.children[i]
	}
	return path
}

// Property: a snapshot scans exactly what it scanned when it was opened,
// whatever the write txns after it do — on a tree three or more levels
// deep, under multi-put/delete txns that edit the same leaf (and key)
// more than once, aborted txns whose id the next writer reuses, and
// crash recoveries under each sync mode followed by more txns. The
// committed state matches a map model throughout, and a recovery lands
// exactly on the state some earlier commit published under that id.
func TestPropertySnapshotStability(t *testing.T) {
	const space = 4000
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for _, mode := range []SyncMode{SyncFull, SyncMeta, NoSync} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, _ := Open(Options{MaxReaders: 1000, Sync: mode})
			model := map[string]string{}
			states := map[uint64]map[string]string{0: {}} // committed state by txn id
			type snapshot struct {
				txn  *Txn
				want string
			}
			var snaps []snapshot
			checkSnaps := func(when string) {
				t.Helper()
				for i, s := range snaps {
					if got := scan(s.txn); got != s.want {
						t.Fatalf("mode %d seed %d: snapshot %d (txn %d) changed %s", mode, seed, i, s.txn.ID(), when)
					}
				}
			}

			w, _ := e.BeginWrite()
			for _, i := range rng.Perm(space)[:2400] {
				model[key(i)] = "v0"
				w.Put([]byte(key(i)), []byte("v0"))
			}
			w.Commit()
			e.Flush() // so that no mode's crash rewinds past the deep tree
			states[e.TxnID()] = maps.Clone(model)
			if d := len(pathNodes(e.root, nil)); d < 3 {
				t.Fatalf("preloaded tree is %d levels deep, want ≥ 3", d)
			}

			abortedID := uint64(0)
			reuses, rewinds := 0, 0
			for step := 0; step < 80; step++ {
				switch r := rng.Intn(10); {
				case r < 3:
					s, _ := e.BeginRead()
					snaps = append(snaps, snapshot{s, scan(s)})
				case r < 4:
					if mode == NoSync && rng.Intn(2) == 0 {
						e.Flush()
					}
					if e.CrashRecover() > 0 {
						rewinds++
					}
					checkSnaps("across a crash")
					abortedID = 0 // a rewind moves the next writer's id
					model = maps.Clone(states[e.TxnID()])
					if got := committed(t, e); got != render(model) {
						t.Fatalf("mode %d seed %d: recovered to txn %d with a state no commit published", mode, seed, e.TxnID())
					}
				default:
					w, _ := e.BeginWrite()
					if abortedID != 0 {
						if w.ID() != abortedID {
							t.Fatalf("writer after an abort has id %d, want the aborted %d", w.ID(), abortedID)
						}
						reuses++
					}
					pending := maps.Clone(model)
					base, ops := rng.Intn(space-4), 2+rng.Intn(10)
					for j := 0; j < ops; j++ {
						k := key(base + rng.Intn(4))
						if rng.Intn(3) == 0 {
							_, had := pending[k]
							if err := w.Delete([]byte(k)); (err == nil) != had {
								t.Fatalf("Delete(%s) = %v, model has it: %v", k, err, had)
							}
							delete(pending, k)
						} else {
							v := fmt.Sprintf("v%d.%d", w.ID(), j)
							w.Put([]byte(k), []byte(v))
							pending[k] = v
						}
						if got, _ := w.Get([]byte(k)); string(got) != pending[k] {
							t.Fatalf("writer reads %s = %q after its own op, want %q", k, got, pending[k])
						}
					}
					abortedID = 0
					if rng.Intn(4) == 0 {
						abortedID = w.ID()
						w.Abort()
						break
					}
					w.Commit()
					model = pending
					states[e.TxnID()] = maps.Clone(model)
					if got := committed(t, e); got != render(model) {
						t.Fatalf("mode %d seed %d: txn %d committed a state the model does not have", mode, seed, e.TxnID())
					}
				}
			}
			checkSnaps("by the end")
			if len(snaps) == 0 || reuses == 0 || (mode != SyncFull && rewinds == 0) {
				t.Errorf("mode %d seed %d covered %d snapshots, %d reused ids, %d rewinding crashes",
					mode, seed, len(snaps), reuses, rewinds)
			}
		}
	}
}

// committed scans the env's committed state through a fresh reader.
func committed(t *testing.T, e *Env) string {
	t.Helper()
	r, err := e.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	return scan(r)
}

// loaded returns an env holding n records committed in random order, and
// their keys in that order.
func loaded(t *testing.T, n int) (*Env, [][]byte) {
	t.Helper()
	e := open(t)
	w, _ := e.BeginWrite()
	keys := make([][]byte, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = []byte(fmt.Sprintf("key-%06d", j))
		if err := w.Put(keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return e, keys
}

// TestWriteTxnCopiesEachNodeOnce: a write txn copies a node the first time
// it edits it and edits that copy in place afterwards (LMDB's dirty-page
// rule), so a txn's copies are bounded by the distinct nodes it touches,
// not by its puts.
func TestWriteTxnCopiesEachNodeOnce(t *testing.T) {
	e, keys := loaded(t, 10000)
	depth := len(pathNodes(e.root, keys[0]))
	if depth < 3 {
		t.Fatalf("10 000 records make a %d-level tree, want ≥ 3", depth)
	}
	w, _ := e.BeginWrite()
	before := e.Stats.PagesCopied
	for i := 0; i < 100; i++ {
		w.Put(keys[0], []byte{byte(i)})
	}
	if got := e.Stats.PagesCopied - before; got != int64(depth) {
		t.Errorf("100 puts to one key copied %d nodes, want the path depth %d", got, depth)
	}
	w.Abort()

	rng := rand.New(rand.NewSource(2))
	batch := make([][]byte, 40)
	distinct := map[*node]bool{}
	for i := range batch {
		batch[i] = keys[rng.Intn(len(keys))]
		for _, n := range pathNodes(e.root, batch[i]) {
			distinct[n] = true
		}
	}
	val := make([]byte, 64)
	txn := func() {
		w, _ := e.BeginWrite()
		for _, k := range batch {
			w.Put(k, val)
		}
		w.Abort()
	}
	before = e.Stats.PagesCopied
	txn()
	if got := e.Stats.PagesCopied - before; got > int64(len(distinct)) {
		t.Errorf("40 random puts copied %d nodes, more than the %d distinct nodes on their paths", got, len(distinct))
	}
	allocs := testing.AllocsPerRun(20, txn)
	if allocs > 250 {
		t.Errorf("a 40-random-put txn over 10 000 records allocates %.0f objects, want ≤ 250", allocs)
	}
	t.Logf("40 random puts: %d distinct path nodes, %.0f allocations", len(distinct), allocs)
}

// TestDeleteOfAbsentKeyCopiesNothing: a Delete that misses leaves the
// txn's tree alone — no node copied or counted, nothing allocated — and a
// Delete that hits copies exactly its path.
func TestDeleteOfAbsentKeyCopiesNothing(t *testing.T) {
	e, keys := loaded(t, 2000)
	w, _ := e.BeginWrite()
	defer w.Abort()
	before := e.Stats.PagesCopied
	for _, k := range []string{"a", "key-0001005", "zzz"} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := w.Delete([]byte(k)); err != ErrNotFound {
				t.Errorf("Delete(%s) = %v, want ErrNotFound", k, err)
			}
		})
		if allocs != 0 {
			t.Errorf("Delete of absent %q allocates %.0f objects", k, allocs)
		}
	}
	if got := e.Stats.PagesCopied - before; got != 0 || w.root != e.root {
		t.Errorf("missed deletes copied %d nodes (root replaced: %v)", got, w.root != e.root)
	}
	if err := w.Delete(keys[5]); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats.PagesCopied-before, int64(len(pathNodes(e.root, keys[5]))); got != want {
		t.Errorf("a hit copied %d nodes, want the path depth %d", got, want)
	}
}
