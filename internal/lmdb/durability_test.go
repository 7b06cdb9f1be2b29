package lmdb

import "testing"

func openSync(t *testing.T, m SyncMode) *Env {
	t.Helper()
	e, err := Open(Options{MaxReaders: 16, Sync: m})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func has(t *testing.T, e *Env, k string) bool {
	t.Helper()
	r, err := e.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	_, err = r.Get([]byte(k))
	if err == ErrNotFound {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}

// TestSyncFullDurableEveryCommit: under SyncFull every commit advances
// the durable root, so a crash loses nothing.
func TestSyncFullDurableEveryCommit(t *testing.T) {
	e := openSync(t, SyncFull)
	for _, k := range []string{"a", "b", "c"} {
		put(t, e, k, "v")
		if e.DurableTxnID() != e.TxnID() {
			t.Fatalf("durable %d != live %d after commit", e.DurableTxnID(), e.TxnID())
		}
	}
	if lost := e.CrashRecover(); lost != 0 {
		t.Errorf("SyncFull crash lost %d txns, want 0", lost)
	}
	for _, k := range []string{"a", "b", "c"} {
		if !has(t, e, k) {
			t.Errorf("key %q lost across SyncFull crash", k)
		}
	}
	if e.Stats.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", e.Stats.Recoveries)
	}
}

// TestSyncMetaTrailsByOne: under SyncMeta the durable root is the
// previous commit — the meta page is synced but the newest data pages
// may not be. A crash loses exactly the last commit.
func TestSyncMetaTrailsByOne(t *testing.T) {
	e := openSync(t, SyncMeta)
	put(t, e, "one", "v") // txn 1; durable still 0
	if e.DurableTxnID() != 0 {
		t.Fatalf("durable after first SyncMeta commit = %d, want 0", e.DurableTxnID())
	}
	put(t, e, "two", "v")   // txn 2; durable = 1
	put(t, e, "three", "v") // txn 3; durable = 2
	if e.DurableTxnID() != 2 {
		t.Fatalf("durable = %d, want 2 (trailing by one)", e.DurableTxnID())
	}
	if lost := e.CrashRecover(); lost != 1 {
		t.Errorf("SyncMeta crash lost %d txns, want 1", lost)
	}
	if !has(t, e, "two") || has(t, e, "three") {
		t.Errorf("after crash: two=%v three=%v, want true/false", has(t, e, "two"), has(t, e, "three"))
	}
	if e.TxnID() != 2 {
		t.Errorf("txnID after recovery = %d, want 2", e.TxnID())
	}
}

// TestNoSyncLossBoundedByFlush: under NoSync nothing becomes durable on
// its own; Flush pins everything committed so far, and a crash loses
// only commits after the flush.
func TestNoSyncLossBoundedByFlush(t *testing.T) {
	e := openSync(t, NoSync)
	keep := []string{"k0", "k1", "k2", "k3", "k4"}
	for _, k := range keep {
		put(t, e, k, "v")
	}
	if e.DurableTxnID() != 0 {
		t.Fatalf("NoSync commits advanced durable to %d", e.DurableTxnID())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.DurableTxnID() != 5 || e.Stats.Flushes != 1 {
		t.Fatalf("after Flush: durable=%d flushes=%d, want 5/1", e.DurableTxnID(), e.Stats.Flushes)
	}
	lose := []string{"k5", "k6", "k7"}
	for _, k := range lose {
		put(t, e, k, "v")
	}
	if lost := e.CrashRecover(); lost != 3 {
		t.Errorf("crash lost %d txns, want 3", lost)
	}
	for _, k := range keep {
		if !has(t, e, k) {
			t.Errorf("flushed key %q lost", k)
		}
	}
	for _, k := range lose {
		if has(t, e, k) {
			t.Errorf("un-synced key %q survived the crash", k)
		}
	}
	if e.Entries() != int64(len(keep)) {
		t.Errorf("Entries = %d, want %d", e.Entries(), len(keep))
	}
}

// TestSyncMetaNeverRegressesPastFlush: the trailing-by-one rule must not
// move the durable root backwards over a stronger guarantee already
// established by Flush.
func TestSyncMetaNeverRegressesPastFlush(t *testing.T) {
	e := openSync(t, SyncMeta)
	put(t, e, "a", "v") // txn 1
	put(t, e, "b", "v") // txn 2
	put(t, e, "c", "v") // txn 3
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	put(t, e, "d", "v") // txn 4: prev txn 3 == durable 3, no regress
	if e.DurableTxnID() != 3 {
		t.Fatalf("durable regressed to %d after post-Flush commit", e.DurableTxnID())
	}
	put(t, e, "e", "v") // txn 5: prev txn 4 > 3, durable advances
	if e.DurableTxnID() != 4 {
		t.Fatalf("durable = %d, want 4", e.DurableTxnID())
	}
}

// TestCrashRecoverResetsSlots: live readers and the writer die with the
// process — after recovery the env accepts new transactions, even when
// it was closed at the time of the crash.
func TestCrashRecoverResetsSlots(t *testing.T) {
	e := openSync(t, SyncFull)
	put(t, e, "a", "v")
	r1, _ := e.BeginRead()
	r2, _ := e.BeginRead()
	w, _ := e.BeginWrite()
	_ = w.Put([]byte("doomed"), []byte("v"))
	_, _, _ = r1, r2, w
	e.Close()
	e.CrashRecover()
	if e.Readers() != 0 {
		t.Errorf("readers = %d after recovery, want 0", e.Readers())
	}
	w2, err := e.BeginWrite()
	if err != nil {
		t.Fatalf("BeginWrite after recovery: %v", err)
	}
	if err := w2.Put([]byte("b"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	if has(t, e, "doomed") {
		t.Error("uncommitted write survived the crash")
	}
	if !has(t, e, "b") {
		t.Error("post-recovery commit missing")
	}
}

// TestSetSyncMidRunRetune: hint-driven retuning flips the sync mode on a
// live env. Commits straddling a SyncFull→NoSync transition must report
// SyncedCommits for exactly the commits made under a syncing mode, and
// the durable root must freeze where the last synced commit left it.
func TestSetSyncMidRunRetune(t *testing.T) {
	e := openSync(t, SyncFull)
	put(t, e, "s1", "v") // synced
	put(t, e, "s2", "v") // synced
	if e.Stats.SyncedCommits != 2 || e.DurableTxnID() != 2 {
		t.Fatalf("under SyncFull: synced=%d durable=%d, want 2/2", e.Stats.SyncedCommits, e.DurableTxnID())
	}
	if err := e.SetSync(NoSync); err != nil {
		t.Fatal(err)
	}
	put(t, e, "n1", "v") // not synced
	put(t, e, "n2", "v") // not synced
	if e.Stats.SyncedCommits != 2 {
		t.Errorf("SyncedCommits = %d after NoSync commits, want still 2", e.Stats.SyncedCommits)
	}
	if e.DurableTxnID() != 2 {
		t.Errorf("durable moved to %d under NoSync, want frozen at 2", e.DurableTxnID())
	}
	if e.Stats.Commits != 4 {
		t.Errorf("Commits = %d, want 4", e.Stats.Commits)
	}
	// Retune back: the first SyncFull commit makes everything before it
	// durable too (it fsyncs the whole data file, not a delta).
	if err := e.SetSync(SyncFull); err != nil {
		t.Fatal(err)
	}
	put(t, e, "s3", "v") // txn 5, synced
	if e.Stats.SyncedCommits != 3 || e.DurableTxnID() != 5 {
		t.Errorf("after retune back: synced=%d durable=%d, want 3/5", e.Stats.SyncedCommits, e.DurableTxnID())
	}
	if lost := e.CrashRecover(); lost != 0 {
		t.Errorf("crash after SyncFull commit lost %d txns, want 0", lost)
	}
	for _, k := range []string{"s1", "s2", "n1", "n2", "s3"} {
		if !has(t, e, k) {
			t.Errorf("key %q lost", k)
		}
	}
}

// TestTxnFromBeforeCrashIsInert: a crash kills the write txn in flight —
// whatever it does afterwards returns ErrTxnDone and touches nothing, so
// it cannot publish its doomed write or free the next boot's writer slot —
// while a read txn held across the crash keeps reading its snapshot and
// gives back only its own slot, never one of the new boot's count.
func TestTxnFromBeforeCrashIsInert(t *testing.T) {
	e := openSync(t, SyncFull)
	put(t, e, "a", "v")
	r, _ := e.BeginRead()
	w, _ := e.BeginWrite()
	if err := w.Put([]byte("doomed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	e.CrashRecover()

	w2, err := e.BeginWrite()
	if err != nil {
		t.Fatalf("BeginWrite after recovery: %v", err)
	}
	if err := w.Commit(); err != ErrTxnDone {
		t.Errorf("pre-crash writer's Commit = %v, want ErrTxnDone", err)
	}
	w.Abort()
	if _, err := e.BeginWrite(); err != ErrWriterActive {
		t.Errorf("BeginWrite beside the new boot's writer = %v, want ErrWriterActive", err)
	}
	if err := w.Put([]byte("k"), []byte("v")); err != ErrTxnDone {
		t.Errorf("pre-crash writer's Put = %v, want ErrTxnDone", err)
	}
	if _, err := w.Get([]byte("a")); err != ErrTxnDone {
		t.Errorf("pre-crash writer's Get = %v, want ErrTxnDone", err)
	}
	if err := w2.Put([]byte("b"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	if has(t, e, "doomed") || !has(t, e, "b") {
		t.Errorf("after the new boot's commit: doomed=%v b=%v, want false/true", has(t, e, "doomed"), has(t, e, "b"))
	}

	if v, err := r.Get([]byte("a")); err != nil || string(v) != "v" {
		t.Errorf("pre-crash reader reads a = %q, %v", v, err)
	}
	r2, _ := e.BeginRead()
	r.Abort()
	if e.Readers() != 1 {
		t.Errorf("readers = %d after the pre-crash reader ended, want the new boot's 1", e.Readers())
	}
	r2.Abort()
	if e.Readers() != 0 {
		t.Errorf("readers = %d, want 0", e.Readers())
	}
}
