package chaos

import (
	"testing"

	"hatrpc/internal/lmdb"
	"hatrpc/internal/simnet"
)

// soakConfig sizes a soak to approximately the requested number of
// crash–restart cycles: the mean cycle is ~650µs (150µs min + 350µs
// mean uptime, then a ~150µs jittered reboot), and the workload is
// paced to outlast the crash horizon so every scheduled crash executes.
func soakConfig(seed int64, sync lmdb.SyncMode, cycles int) Config {
	horizon := int64(cycles) * 700_000
	return Config{
		Seed:            seed,
		Sync:            sync,
		Workers:         3,
		WritesPerWorker: int(horizon / 200_000),
		WritePaceNs:     220_000,
		Crash: simnet.CrashConfig{
			Nodes:           []int{0},
			MeanUptimeNs:    350_000,
			MinUptimeNs:     150_000,
			RestartDelayNs:  120_000,
			RestartJitterNs: 60_000,
			HorizonNs:       horizon,
		},
	}
}

// soakCycles is the crash-cycle budget: the acceptance bar of ≥ 50
// executed cycles normally, trimmed under -short.
func soakCycles(t *testing.T) (cycles, minCrashes int) {
	if testing.Short() {
		return 12, 8
	}
	return 60, 50
}

// assertSoakInvariants checks the properties every soak must satisfy
// regardless of sync mode.
func assertSoakInvariants(t *testing.T, res *Result, minCrashes int) {
	t.Helper()
	if res.Incomplete != 0 {
		t.Fatalf("%d workers never finished (watchdog fired)", res.Incomplete)
	}
	if len(res.Crashes) < minCrashes {
		t.Errorf("executed %d crash cycles, want >= %d", len(res.Crashes), minCrashes)
	}
	if res.Unexplained != 0 {
		t.Errorf("%d lost writes have no explaining crash", res.Unexplained)
	}
	if res.BoundViolated {
		t.Errorf("lost %d acked writes but only %d committed txns were rolled back",
			res.Lost, res.StoreLostTxns)
	}
	if res.GetMismatches != 0 {
		t.Errorf("%d read-backs returned wrong bytes", res.GetMismatches)
	}
	if res.SessionFailovers == 0 {
		t.Errorf("no session failed over across %d crashes — no reconnection happened", len(res.Crashes))
	}
	if int(res.StoreRecoveries) != len(res.Crashes) {
		t.Errorf("store recovered %d times across %d crashes", res.StoreRecoveries, len(res.Crashes))
	}
}

// TestSoakSyncFullNoAckedWriteLost is the acceptance soak: with every
// commit fsynced, zero acknowledged writes may be lost across the full
// randomized crash schedule, and every session must re-establish
// without manual intervention.
func TestSoakSyncFullNoAckedWriteLost(t *testing.T) {
	cycles, minCrashes := soakCycles(t)
	res := Soak(soakConfig(301, lmdb.SyncFull, cycles))
	assertSoakInvariants(t, res, minCrashes)
	if res.Lost != 0 {
		t.Errorf("SyncFull lost %d acked writes, want 0", res.Lost)
	}
	if res.StoreLostTxns != 0 {
		t.Errorf("SyncFull rolled back %d committed txns, want 0", res.StoreLostTxns)
	}
	t.Logf("crashes=%d acked=%d replays=%d failovers=%d failed_calls=%d",
		len(res.Crashes), res.Acked, res.SessionReplays, res.SessionFailovers, res.FailedCalls)
}

// TestSoakSyncFullGroupedAcksShareTxn: twelve unpaced workers keep the
// store's write queue populated, so acks come out of shared commit groups
// — several writes carrying one txn id. The loss rule is per txn id, so a
// group is kept or rolled back whole; under SyncFull none is rolled back.
func TestSoakSyncFullGroupedAcksShareTxn(t *testing.T) {
	cfg := soakConfig(331, lmdb.SyncFull, 12)
	cfg.Workers, cfg.WritesPerWorker, cfg.WritePaceNs = 12, 400, 0
	res := Soak(cfg)
	assertSoakInvariants(t, res, 8)
	if res.Lost != 0 || res.StoreLostTxns != 0 {
		t.Errorf("SyncFull lost %d acked writes and rolled back %d txns, want 0 and 0", res.Lost, res.StoreLostTxns)
	}
	perTxn := map[uint64]int{}
	shared := 0
	for _, w := range res.Writes {
		perTxn[w.Txn]++
		if perTxn[w.Txn] == 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("%d acked writes in %d txns: no commit group formed, the soak exercised nothing", res.Acked, len(perTxn))
	}
	t.Logf("crashes=%d acked=%d txns=%d shared_txns=%d", len(res.Crashes), res.Acked, len(perTxn), shared)
}

// TestSoakNoSyncLossBounded: with commits trusted to the page cache,
// acked writes may be lost — but every loss must be explained by a
// recorded crash rollback and the total is bounded by the rolled-back
// commit count.
func TestSoakNoSyncLossBounded(t *testing.T) {
	cycles, minCrashes := soakCycles(t)
	res := Soak(soakConfig(307, lmdb.NoSync, cycles))
	assertSoakInvariants(t, res, minCrashes)
	if res.StoreLostTxns == 0 {
		t.Error("NoSync soak rolled back nothing — the crash schedule missed every commit window")
	}
	t.Logf("crashes=%d acked=%d lost=%d rolled_back=%d", len(res.Crashes), res.Acked, res.Lost, res.StoreLostTxns)
}

// TestSoakNoSyncGroupedLossBounded: twelve unpaced NoSync workers, so
// writers share commit groups, and a crash that rolls a group back loses
// all of its acked writes under one txn id. There are more lost writes
// than rolled-back commits, yet every loss is explained and the distinct
// ids the lost writes name stay within the rolled-back count.
func TestSoakNoSyncGroupedLossBounded(t *testing.T) {
	cfg := soakConfig(337, lmdb.NoSync, 12)
	cfg.Workers, cfg.WritesPerWorker, cfg.WritePaceNs = 12, 400, 0
	res := Soak(cfg)
	assertSoakInvariants(t, res, 8)
	lostPerTxn := map[uint64]int{}
	shared := 0
	for _, w := range res.Writes {
		if w.Lost {
			lostPerTxn[w.Txn]++
			if lostPerTxn[w.Txn] == 2 {
				shared++
			}
		}
	}
	if shared == 0 || uint64(res.Lost) <= res.StoreLostTxns {
		t.Errorf("lost %d acked writes in %d txns (%d shared) with %d rolled back: no rolled-back group lost more writes than there were lost commits",
			res.Lost, len(lostPerTxn), shared, res.StoreLostTxns)
	}
	t.Logf("crashes=%d acked=%d lost=%d lost_txns=%d shared=%d rolled_back=%d",
		len(res.Crashes), res.Acked, res.Lost, len(lostPerTxn), shared, res.StoreLostTxns)
}

// TestSoakSyncMetaLossBounded: the trailing-by-one durability of
// SyncMeta under the same schedule — at most the newest commit per
// crash is lost, which the generic bound and explanation checks verify.
func TestSoakSyncMetaLossBounded(t *testing.T) {
	res := Soak(soakConfig(311, lmdb.SyncMeta, 12))
	assertSoakInvariants(t, res, 8)
	t.Logf("crashes=%d acked=%d lost=%d rolled_back=%d", len(res.Crashes), res.Acked, res.Lost, res.StoreLostTxns)
}

// TestSoakSameSeedByteIdentical is the determinism acceptance: the
// soak's full audited report — crash schedule, loss accounting and the
// digest of every acked write — is a pure function of the seed.
func TestSoakSameSeedByteIdentical(t *testing.T) {
	cfg := soakConfig(313, lmdb.NoSync, 10)
	a := Soak(cfg).Report()
	b := Soak(cfg).Report()
	if a != b {
		t.Fatalf("same-seed soaks diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	cfg2 := cfg
	cfg2.Seed = 314
	if c := Soak(cfg2).Report(); c == a {
		t.Fatal("different seeds produced identical soaks (schedule not seed-driven?)")
	}
}
