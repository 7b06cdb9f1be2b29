package chaos

import (
	"strings"
	"testing"

	"hatrpc/internal/cluster"
	"hatrpc/internal/node"
	"hatrpc/internal/simnet"
)

// soakPartitions is the cluster soak's fault plan: a periodic
// split-brain partition over the five servers.
var soakPartitions = simnet.FaultConfig{
	PartitionPeriodNs: 6_000_000,
	PartitionForNs:    700_000,
	PartitionNodes:    []int{0, 1, 2, 3, 4},
}

// clusterSoakConfig sizes a cluster soak on the default 5-node RF-3
// SyncFull node config: a seeded crash schedule (mean cycle a few ms —
// comfortably longer than a failover, so promotions complete between
// kills) plus soakPartitions, and no restart operator.
func clusterSoakConfig(seed int64, horizonNs int64) RollingConfig {
	nc := node.DefaultConfig()
	nc.Protocol.Seed = seed
	nc.Protocol.Crash = node.CrashSpec{
		MeanUptimeNs:    4_000_000,
		MinUptimeNs:     2_500_000,
		RestartDelayNs:  400_000,
		RestartJitterNs: 200_000,
		HorizonNs:       horizonNs,
	}
	nc.Application.Workload = node.WorkloadConfig{Workers: 3, Writes: int(horizonNs / 400_000), PaceNs: 300_000}
	return RollingConfig{Node: nc, Faults: soakPartitions}
}

// mustSoak runs one cluster soak and fails the test on a boot error.
func mustSoak(t *testing.T, rc RollingConfig) *RollingResult {
	t.Helper()
	res, err := RollingSoak(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterSoakSyncFullZeroLoss is the crash-and-partition gate: a
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
	rc := clusterSoakConfig(211, horizon)
	res := mustSoak(t, rc)
	rc.Node.Protocol.RF = 1
	if rf1 := mustSoak(t, rc); rf1.Promotions != 0 || len(rf1.Crashes) == 0 {
		t.Errorf("RF 1 promoted %d times across %d crashes, want none: a lone replica has no successor", rf1.Promotions, len(rf1.Crashes))
	}
	rc.Node.Protocol.RF = 2
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, cluster.RF2Refusal) {
				t.Errorf("RF 2 soak: recovered %q, want it refused with %q", msg, cluster.RF2Refusal)
			}
		}()
		RollingSoak(rc)
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
	rc := clusterSoakConfig(227, 12_000_000)
	a := mustSoak(t, rc).Report()
	b := mustSoak(t, rc).Report()
	if a != b {
		t.Fatalf("same-seed cluster soaks diverged:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
	if testing.Short() {
		return
	}
	// And a different seed genuinely reshuffles the run.
	if c := mustSoak(t, clusterSoakConfig(229, 12_000_000)).Report(); c == a {
		t.Errorf("different seeds produced identical reports")
	}
}
