package chaos

import (
	"strings"
	"testing"

	"hatrpc/internal/cluster"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/simnet"
)

// clusterSoakConfig sizes a cluster soak: 5 server nodes under a seeded
// crash schedule (mean cycle a few ms — comfortably longer than a
// failover, so promotions complete between kills) plus a periodic
// split-brain partition over the servers.
func clusterSoakConfig(seed int64, sync lmdb.SyncMode, horizonNs int64) ClusterConfig {
	return ClusterConfig{
		Seed:            seed,
		Sync:            sync,
		Servers:         5,
		NShards:         8,
		RF:              3,
		Workers:         3,
		WritesPerWorker: int(horizonNs / 400_000),
		WritePaceNs:     300_000,
		Crash: simnet.CrashConfig{
			Nodes:           []int{0, 1, 2, 3, 4},
			MeanUptimeNs:    4_000_000,
			MinUptimeNs:     2_500_000,
			RestartDelayNs:  400_000,
			RestartJitterNs: 200_000,
			HorizonNs:       horizonNs,
		},
		Faults: simnet.FaultConfig{
			PartitionPeriodNs: 6_000_000,
			PartitionForNs:    700_000,
			PartitionNodes:    []int{0, 1, 2, 3, 4},
		},
	}
}

// TestClusterSoakSyncFullZeroLoss is the tentpole acceptance gate: a
// 5-node RF-3 cluster under seeded primary kills and link partitions
// loses zero acknowledged SyncFull writes, cluster-wide. The audit
// checks every acked key against its shard's authority replica — the
// durable store with the maximum (epoch, seq). The same seed at RF 1 is
// the contrast: the same kills, and no replica to promote. RF 2 could
// not promote either (a quorum of two is both), so no soak is built.
func TestClusterSoakSyncFullZeroLoss(t *testing.T) {
	horizon := int64(40_000_000)
	minCrashes := 20
	if testing.Short() {
		horizon = 15_000_000
		minCrashes = 6
	}
	cfg := clusterSoakConfig(211, lmdb.SyncFull, horizon)
	res := ClusterSoak(cfg)
	cfg.RF = 1
	if rf1 := ClusterSoak(cfg); rf1.Promotions != 0 || len(rf1.Crashes) == 0 {
		t.Errorf("RF 1 promoted %d times across %d crashes, want none: a lone replica has no successor", rf1.Promotions, len(rf1.Crashes))
	}
	cfg.RF = 2
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, cluster.RF2Refusal) {
				t.Errorf("RF 2 soak: recovered %q, want it refused with %q", msg, cluster.RF2Refusal)
			}
		}()
		ClusterSoak(cfg)
	}()
	if res.Incomplete != 0 {
		t.Fatalf("%d workers never finished (watchdog fired)\n%s", res.Incomplete, res.Report())
	}
	if len(res.Crashes) < minCrashes {
		t.Errorf("executed %d crashes, want >= %d", len(res.Crashes), minCrashes)
	}
	if res.Promotions == 0 {
		t.Errorf("no promotions — the soak never exercised failover")
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d acked SyncFull writes\n%s", res.Lost, res.Report())
	}
	if res.GetMismatches != 0 {
		t.Errorf("%d read-backs returned wrong bytes", res.GetMismatches)
	}
	if res.Acked == 0 {
		t.Errorf("soak acked no writes at all")
	}
	// Failovers must be visible end to end: clients chased epochs.
	if res.Refreshes == 0 {
		t.Errorf("clients never refreshed the shard map across %d crashes", len(res.Crashes))
	}
}

// TestClusterSoakDeterministic: a cluster soak is a pure function of
// its seed — two same-seed runs produce byte-identical reports, crash
// log, partition schedule, failovers, write digest and all.
func TestClusterSoakDeterministic(t *testing.T) {
	cfg := clusterSoakConfig(227, lmdb.SyncFull, 12_000_000)
	a := ClusterSoak(cfg).Report()
	b := ClusterSoak(cfg).Report()
	if a != b {
		t.Fatalf("same-seed cluster soaks diverged:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
	if testing.Short() {
		return
	}
	// And a different seed genuinely reshuffles the run.
	cfg2 := cfg
	cfg2.Seed = 229
	if c := ClusterSoak(cfg2).Report(); c == a {
		t.Errorf("different seeds produced identical reports")
	}
}
