package simnet

import (
	"testing"

	"hatrpc/internal/sim"
)

func faultCluster(seed int64) (*sim.Env, *Cluster) {
	env := sim.NewEnv(seed)
	cl := NewCluster(env, Config{
		Nodes: 3, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	return env, cl
}

func TestInstallFaultsZeroConfigStaysOff(t *testing.T) {
	_, cl := faultCluster(1)
	if cl.InstallFaults(FaultConfig{}); cl.Faults() != nil {
		t.Fatal("zero-valued config installed an active fault plan")
	}
	if cl.InstallFaults(FaultConfig{DropProb: 0.1}); cl.Faults() == nil {
		t.Fatal("non-zero config did not install")
	}
	// Re-installing a disabled config turns faults back off.
	if cl.InstallFaults(FaultConfig{}); cl.Faults() != nil {
		t.Fatal("re-install with zero config did not clear the plan")
	}
}

func TestFaultOutcomeDropRate(t *testing.T) {
	_, cl := faultCluster(2)
	fp := cl.InstallFaults(FaultConfig{DropProb: 0.1})
	drops := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if drop, extra := fp.Outcome(0, 1, 1); drop {
			drops++
		} else if extra != 0 {
			t.Fatalf("jitter disabled but extra = %d", extra)
		}
	}
	if drops < n/20 || drops > n/5 {
		t.Fatalf("drop rate %d/%d far from configured 10%%", drops, n)
	}
	// Loss is per packet: a four-packet message is lost about
	// 1 − 0.9⁴ ≈ 34 % of the time.
	drops = 0
	for i := 0; i < n; i++ {
		if drop, _ := fp.Outcome(0, 1, 4); drop {
			drops++
		}
	}
	if drops < n*30/100 || drops > n*38/100 {
		t.Fatalf("four-packet drop rate %d/%d far from 34%%", drops, n)
	}
}

func TestFaultOutcomeJitterBounded(t *testing.T) {
	_, cl := faultCluster(3)
	fp := cl.InstallFaults(FaultConfig{JitterNs: 500})
	seen := false
	for i := 0; i < 1000; i++ {
		drop, extra := fp.Outcome(0, 1, 1)
		if drop {
			t.Fatal("drop with DropProb 0")
		}
		if extra < 0 || extra >= 500 {
			t.Fatalf("jitter %d outside [0,500)", extra)
		}
		if extra > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("jitter never non-zero over 1000 draws")
	}
}

func TestFaultLinkFlapWindows(t *testing.T) {
	env, cl := faultCluster(4)
	fp := cl.InstallFaults(FaultConfig{FlapPeriodNs: 10_000, FlapDownNs: 2_000})
	// Sample the directed link over several periods: ~20% of evenly spaced
	// instants must fall in a down window, and down instants must recur
	// with the configured period.
	down := 0
	const samples = 1000
	for i := 0; i < samples; i++ {
		if fp.linkDown(0, 1, sim.Time(i*100)) {
			down++
		}
	}
	if down < samples/10 || down > samples/3 {
		t.Fatalf("link down %d/%d samples, configured 20%%", down, samples)
	}
	for tm := sim.Time(0); tm < 10_000; tm++ {
		if fp.linkDown(0, 1, tm) != fp.linkDown(0, 1, tm+10_000) {
			t.Fatalf("flap window not periodic at t=%d", tm)
		}
	}
	_ = env
}

func TestFaultPauseDelaysDestination(t *testing.T) {
	_, cl := faultCluster(5)
	fp := cl.InstallFaults(FaultConfig{
		PausePeriodNs: 10_000, PauseForNs: 3_000, PausedNodes: []int{1},
	})
	// Node 2 is not in PausedNodes: never paused.
	for tm := sim.Time(0); tm < 20_000; tm += 100 {
		if fp.pauseRemaining(2, tm) != 0 {
			t.Fatal("unlisted node reported paused")
		}
	}
	// Node 1 must be paused ~30% of the time, and the remaining pause must
	// count down to the window edge.
	paused := 0
	for tm := sim.Time(0); tm < 100_000; tm++ {
		if r := fp.pauseRemaining(1, tm); r > 0 {
			paused++
			if r > 3_000 {
				t.Fatalf("pauseRemaining %d exceeds window", r)
			}
		}
	}
	if paused < 25_000 || paused > 35_000 {
		t.Fatalf("node paused %d/100000 ns, configured 30%%", paused)
	}
}

func TestFaultPhasesSeedDeterministic(t *testing.T) {
	plan := func(seed int64) *FaultPlan {
		_, cl := faultCluster(seed)
		return cl.InstallFaults(FaultConfig{
			FlapPeriodNs: 10_000, FlapDownNs: 2_000,
			PausePeriodNs: 10_000, PauseForNs: 1_000, PausedNodes: []int{0, 1, 2},
		})
	}
	a, b := plan(7), plan(7)
	for link, ph := range a.flapPhase {
		if b.flapPhase[link] != ph {
			t.Fatalf("same seed, different flap phase for link %v", link)
		}
	}
	for node, ph := range a.pausePhase {
		if b.pausePhase[node] != ph {
			t.Fatalf("same seed, different pause phase for node %d", node)
		}
	}
	c := plan(8)
	same := true
	for link, ph := range a.flapPhase {
		if c.flapPhase[link] != ph {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical flap phases")
	}
}

// TestGateUtilizationNeverExceedsOne is the regression for the
// reserved-vs-completed split: Reserve may book occupancy far beyond now
// (pipelined transfers), and the old busyNs/now ratio reported >1.
func TestGateUtilizationNeverExceedsOne(t *testing.T) {
	_, cl := faultCluster(9)
	g := cl.Node(0).RX
	// Book 10 back-to-back 1µs transfers at t=0: busyNs = 10_000 while
	// only the first slice has elapsed by t=1000.
	for i := 0; i < 10; i++ {
		g.Reserve(0, 12500)
	}
	if got := g.BusyNs(); got != 10_000 {
		t.Fatalf("BusyNs = %d, want 10000 (raw occupancy keeps reserved-ahead)", got)
	}
	for _, now := range []sim.Time{1, 500, 1000, 5000, 9999, 10_000, 20_000} {
		u := g.Utilization(now)
		if u < 0 || u > 1 {
			t.Fatalf("Utilization(%d) = %f, want within [0,1]", now, u)
		}
	}
	// Fully elapsed: the gate was busy 10µs out of 10µs.
	if u := g.Utilization(10_000); u != 1 {
		t.Fatalf("Utilization at completion = %f, want 1", u)
	}
	// Half elapsed: exactly half the occupancy has completed.
	if u := g.Utilization(5_000); u != 1 {
		t.Fatalf("Utilization mid-stream = %f, want 1 (gate saturated)", u)
	}
	if r := g.ReservedAheadNs(5_000); r != 5_000 {
		t.Fatalf("ReservedAheadNs(5000) = %d, want 5000", r)
	}
	if c := g.CompletedBusyNs(5_000); c != 5_000 {
		t.Fatalf("CompletedBusyNs(5000) = %d, want 5000", c)
	}
}

func TestPartitionDisabledConfigsStayOff(t *testing.T) {
	_, cl := faultCluster(11)
	// Partition needs period, duration AND at least two listed nodes:
	// anything less must not enable the plan (or, combined with other
	// faults, must never sever), so pre-partition configs replay
	// byte-identically after this feature.
	for _, cfg := range []FaultConfig{
		{PartitionPeriodNs: 10_000},
		{PartitionForNs: 2_000},
		{PartitionPeriodNs: 10_000, PartitionForNs: 2_000, PartitionNodes: []int{0}},
	} {
		if cl.InstallFaults(cfg); cl.Faults() != nil {
			t.Fatalf("partial partition config %+v installed a plan", cfg)
		}
	}
	fp := cl.InstallFaults(FaultConfig{DropProb: 0.1})
	for tm := sim.Time(0); tm < 100_000; tm += 500 {
		if fp.Severed(0, 1, tm) {
			t.Fatal("Severed fired with partitioning disabled")
		}
	}
}

func TestPartitionSeversBothDirections(t *testing.T) {
	env, cl := faultCluster(12)
	fp := cl.InstallFaults(FaultConfig{
		PartitionPeriodNs: 10_000, PartitionForNs: 3_000, PartitionNodes: []int{0, 1},
	})
	severed := 0
	const samples = 10_000
	for i := 0; i < samples; i++ {
		tm := sim.Time(i * 37)
		a, b := fp.Severed(0, 1, tm), fp.Severed(1, 0, tm)
		if a != b {
			t.Fatalf("partition asymmetric at t=%d: %v vs %v", tm, a, b)
		}
		if a {
			severed++
		}
		// Node 2 is outside PartitionNodes: never cut.
		if fp.Severed(0, 2, tm) || fp.Severed(2, 1, tm) {
			t.Fatalf("unlisted node severed at t=%d", tm)
		}
	}
	// Two nodes land on opposite sides in ~half the windows, and windows
	// are open 30% of the time: expect ~15% severed samples.
	if severed < samples/20 || severed > samples/3 {
		t.Fatalf("severed %d/%d samples, expected ~15%%", severed, samples)
	}
	// A severed instant must also drop on the fabric path: schedule the
	// Outcome check inside a severed window and run the sim to it.
	var windowAt sim.Time
	for i := 0; i < samples; i++ {
		if tm := sim.Time(i * 37); fp.Severed(0, 1, tm) {
			windowAt = tm
			break
		}
	}
	if windowAt == 0 {
		t.Fatal("no severed window sampled")
	}
	checked := false
	env.At(windowAt, func() {
		checked = true
		if drop, _ := fp.Outcome(0, 1, 1); !drop {
			t.Errorf("Outcome did not drop during a severed window at t=%d", windowAt)
		}
		env.Stop()
	})
	env.Run()
	if !checked {
		t.Fatal("scheduled Outcome check never ran")
	}
}

func TestOneWayCutsAreDirectional(t *testing.T) {
	_, cl := faultCluster(13)
	fp := cl.InstallFaults(FaultConfig{
		OneWayCuts: []LinkCut{{From: 0, To: 1, StartNs: 5_000, EndNs: 8_000}},
	})
	for tm := sim.Time(0); tm < 12_000; tm += 100 {
		fwd := fp.Severed(0, 1, tm)
		rev := fp.Severed(1, 0, tm)
		want := tm >= 5_000 && tm < 8_000
		if fwd != want {
			t.Fatalf("forward cut at t=%d: got %v want %v", tm, fwd, want)
		}
		if rev {
			t.Fatalf("reverse direction cut at t=%d — one-way cut leaked", tm)
		}
	}
}

func TestPartitionSeedDeterministic(t *testing.T) {
	plan := func(seed int64) *FaultPlan {
		_, cl := faultCluster(seed)
		return cl.InstallFaults(FaultConfig{
			PartitionPeriodNs: 10_000, PartitionForNs: 3_000, PartitionNodes: []int{0, 1, 2},
		})
	}
	a, b := plan(7), plan(7)
	if a.partPhase != b.partPhase {
		t.Fatalf("same seed, different partition phase: %d vs %d", a.partPhase, b.partPhase)
	}
	for n, s := range a.partSide {
		if b.partSide[n] != s {
			t.Fatalf("same seed, different side draw for node %d", n)
		}
	}
	c := plan(8)
	if c.partPhase == a.partPhase {
		t.Error("different seeds drew identical partition phases")
	}
}

// TestFaultDropNthScriptedSingleLoss: a DropNth script loses exactly the
// message carrying the named packet of the named directed link, counted
// from installation, and draws no randomness.
func TestFaultDropNthScriptedSingleLoss(t *testing.T) {
	env, cl := faultCluster(7)
	before := env.Rand().Int63()
	env2, _ := faultCluster(7)
	if env2.Rand().Int63() != before {
		t.Fatal("seeded RNG not reproducible")
	}
	fp := cl.InstallFaults(FaultConfig{DropNth: []NthDrop{{From: 0, To: 1, N: 3}, {From: 0, To: 1, N: 5}}})
	if fp == nil || cl.Faults() == nil {
		t.Fatal("a DropNth script did not install a plan")
	}
	var lost []int
	for i := 1; i <= 8; i++ {
		if drop, _ := fp.Outcome(0, 1, 1); drop {
			lost = append(lost, i)
		}
		if drop, _ := fp.Outcome(1, 0, 1); drop {
			t.Fatalf("reverse link dropped message %d", i)
		}
	}
	if len(lost) != 2 || lost[0] != 3 || lost[1] != 5 {
		t.Fatalf("lost messages %v, want [3 5]", lost)
	}
	// Counting is by packet: of four-packet messages, the one that
	// carries packet 10 (the third) is lost.
	fp = cl.InstallFaults(FaultConfig{DropNth: []NthDrop{{From: 0, To: 1, N: 10}}})
	lost = lost[:0]
	for i := 1; i <= 4; i++ {
		if drop, _ := fp.Outcome(0, 1, 4); drop {
			lost = append(lost, i)
		}
	}
	if len(lost) != 1 || lost[0] != 3 {
		t.Fatalf("lost four-packet messages %v, want [3]", lost)
	}
	if env.Rand().Int63() != env2.Rand().Int63() {
		t.Fatal("DropNth drew from the seeded RNG")
	}
}
