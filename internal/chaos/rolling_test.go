package chaos

import (
	"testing"

	"hatrpc/internal/node"
)

// TestRollingSoakSLO is the release gate: a 5-node cluster restarted
// node by node (graceful drain → stop → reboot → rejoin → resync) under
// a retry-until-acked workload must keep availability ≥ 99%, lose zero
// acked SyncFull writes, and bring every node back to ready.
func TestRollingSoakSLO(t *testing.T) {
	res, err := RollingSoak(RollingConfig{Rounds: 2, Graceful: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d workers never finished:\n%s", res.Incomplete, res.Report())
	}
	if res.Lost != 0 {
		t.Errorf("lost %d acked writes:\n%s", res.Lost, res.Report())
	}
	if res.GetMismatches != 0 {
		t.Errorf("%d read-backs returned wrong bytes", res.GetMismatches)
	}
	if av := res.Availability(); av < 0.99 {
		t.Errorf("availability %.4f < 0.99 (acked=%d failed=%d)", av, res.Acked, res.FailedPuts)
	}
	servers := node.DefaultConfig().Protocol.Servers
	if want := int64(2 * servers); res.Drains != want {
		t.Errorf("drains = %d, want %d (escalations=%d)", res.Drains, want, res.Escalations)
	}
	if res.Escalations != 0 {
		t.Errorf("%d drains escalated to the crash path under a light workload", res.Escalations)
	}
	if res.DrainedRequests == 0 {
		t.Error("no request was ever fenced with the typed draining reply")
	}
	if res.Promotions == 0 {
		t.Error("no shard was promoted away from a draining node")
	}
	for _, c := range res.Cycles {
		if c.ReadyAt <= c.DownAt {
			t.Errorf("node %d round %d never returned to ready (down=%d ready=%d)",
				c.Node, c.Round, c.DownAt, c.ReadyAt)
		}
	}
}

// TestRollingSoakDeterministic pins same-seed byte-identical replay of
// the full soak, cycle timings and write digest included.
func TestRollingSoakDeterministic(t *testing.T) {
	a, err := RollingSoak(RollingConfig{Rounds: 1, Graceful: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RollingSoak(RollingConfig{Rounds: 1, Graceful: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Errorf("same-seed soaks diverged:\n--- a ---\n%s--- b ---\n%s", a.Report(), b.Report())
	}
}

// TestRollingGracefulBeatsHardKill is the headline contrast: draining a
// node before stopping it (failover runs while the node still answers)
// must show a measurably smaller error-visible window and faster
// post-stop recovery than hard-killing it (the PR 8 path, where
// failover can only start post-mortem).
func TestRollingGracefulBeatsHardKill(t *testing.T) {
	grace, err := RollingSoak(RollingConfig{Rounds: 1, Graceful: true})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := RollingSoak(RollingConfig{Rounds: 1, Graceful: false})
	if err != nil {
		t.Fatal(err)
	}
	if hard.Drains != 0 || hard.DrainedRequests != 0 {
		t.Errorf("hard-kill ran drains: drains=%d fenced=%d", hard.Drains, hard.DrainedRequests)
	}
	if grace.ErrWindowNs >= hard.ErrWindowNs {
		t.Errorf("graceful error window %dns not smaller than hard-kill %dns",
			grace.ErrWindowNs, hard.ErrWindowNs)
	}
	maxRecov := func(r *RollingResult) int64 {
		var m int64
		for _, c := range r.Cycles {
			if c.RecoveryNs > m {
				m = c.RecoveryNs
			}
		}
		return m
	}
	if g, h := maxRecov(grace), maxRecov(hard); g >= h {
		t.Errorf("graceful worst recovery %dns not smaller than hard-kill %dns", g, h)
	}
}

// TestRollingSoakUnderCrashPlan races the rolling drains against a
// seeded crash schedule: whatever interleaving results, zero acked
// writes may be lost and every worker must finish.
func TestRollingSoakUnderCrashPlan(t *testing.T) {
	cfg := node.DefaultConfig()
	cfg.Protocol.Crash = node.CrashSpec{
		MeanUptimeNs: 2_000_000, MinUptimeNs: 200_000,
		RestartDelayNs: 400_000, RestartJitterNs: 200_000, HorizonNs: 12_000_000,
	}
	res, err := RollingSoak(RollingConfig{Node: cfg, Rounds: 1, Graceful: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d workers never finished:\n%s", res.Incomplete, res.Report())
	}
	if res.Lost != 0 {
		t.Errorf("lost %d acked writes under crash+drain races:\n%s", res.Lost, res.Report())
	}
	if res.GetMismatches != 0 {
		t.Errorf("%d read-backs returned wrong bytes", res.GetMismatches)
	}
	if len(res.Crashes) <= len(res.Cycles) {
		t.Errorf("crash plan never fired beyond the rolling stops (crashes=%d cycles=%d)",
			len(res.Crashes), len(res.Cycles))
	}
}

// TestRollingSoakUnderPartitions restarts every node once — drained or
// hard-killed — while the cluster soak's split-brain partitions come and
// go: no acked write may be lost, every put must be served, and every
// node must come back to ready.
func TestRollingSoakUnderPartitions(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		res := mustSoak(t, RollingConfig{Rounds: 1, Graceful: graceful, Faults: soakPartitions})
		if res.Incomplete != 0 || res.Lost != 0 || res.GetMismatches != 0 {
			t.Errorf("incomplete=%d lost=%d mismatches=%d, want all 0:\n%s",
				res.Incomplete, res.Lost, res.GetMismatches, res.Report())
		}
		if av := res.Availability(); av != 1 {
			t.Errorf("availability %.4f (failed_puts=%d), want 1.0000:\n%s", av, res.FailedPuts, res.Report())
		}
		for _, c := range res.Cycles {
			if c.ReadyAt <= c.DownAt {
				t.Errorf("graceful=%v: node %d never returned to ready (down=%d ready=%d)",
					graceful, c.Node, c.DownAt, c.ReadyAt)
			}
		}
	}
}
