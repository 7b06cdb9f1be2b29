package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(1000, 0.99)
	rng := rand.New(rand.NewSource(1))
	counts := map[int64]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: it should hold well over 5% of draws at
	// theta=0.99 over 1000 items.
	if float64(counts[0])/N < 0.05 {
		t.Fatalf("rank 0 frequency %.4f too low for zipfian", float64(counts[0])/N)
	}
	if counts[0] <= counts[500] {
		t.Fatal("head not hotter than tail")
	}
}

func TestZipfianScrambledRange(t *testing.T) {
	z := NewZipfian(500, 0.99)
	rng := rand.New(rand.NewSource(2))
	seen := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		v := z.NextScrambled(rng)
		if v < 0 || v >= 500 {
			t.Fatalf("scrambled out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 100 {
		t.Fatalf("scrambling produced only %d distinct keys", len(seen))
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, w := range []Workload{WorkloadA(100), WorkloadB(100)} {
		sum := 0.0
		for _, p := range w.Mix {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("workload %s mix sums to %v", w.Name, sum)
		}
	}
	b := WorkloadB(100)
	if b.Mix[OpGet] != 0.475 || b.Mix[OpPut] != 0.025 {
		t.Errorf("workload B mix = %v", b.Mix)
	}
}

func TestChooseOpRespectsProportions(t *testing.T) {
	w := WorkloadB(100)
	rng := rand.New(rand.NewSource(3))
	counts := map[Op]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		counts[w.ChooseOp(rng)]++
	}
	if f := float64(counts[OpGet]) / N; f < 0.44 || f > 0.51 {
		t.Errorf("Get fraction %.3f, want ~0.475", f)
	}
	if f := float64(counts[OpPut]) / N; f < 0.01 || f > 0.05 {
		t.Errorf("Put fraction %.3f, want ~0.025", f)
	}
}

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 24 {
		t.Fatalf("key length %d, want 24 (paper §5.4)", len(k))
	}
	if k[:4] != "user" {
		t.Fatalf("key prefix %q", k[:4])
	}
	for _, i := range []int{0, 1, 42, 10_000 - 1, math.MaxInt64} {
		if got, want := Key(i), fmt.Sprintf("user%020d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestSmallRunAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	cfg := RunConfig{
		Workload: WorkloadA(500),
		Systems:  AllSystems,
		Clients:  16,
		Nodes:    5,
		Seed:     5,
	}
	results := Run(cfg)
	if len(results) != len(AllSystems) {
		t.Fatalf("%d results", len(results))
	}
	byName := map[SystemKind]Result{}
	for _, r := range results {
		if r.TotalOps <= 0 {
			t.Fatalf("%v made no progress", r.System)
		}
		byName[r.System] = r
	}
	// HatRPC-Function ≥ HatRPC-Service (within sampling noise at this
	// small scale). Workload A is bound by the store's write queue, not by
	// the transport, so the paper's Fig. 15a lead does not appear
	// (EXPERIMENTS.md, Known deviation 5): the comparators come within
	// reach, up to 6.8 % ahead in Fig. 15 and 5.3 % (HERD) here. No
	// comparator may lead HatRPC-Function by more than 7 %.
	hf, hs := byName[SysHatFunction].TotalOps, byName[SysHatService].TotalOps
	if hf < hs*0.95 {
		t.Errorf("HatRPC-Function (%.0f) below HatRPC-Service (%.0f)", hf, hs)
	}
	for _, sys := range []SystemKind{SysARgRPC, SysHERD, SysPilaf, SysRFP} {
		if c := byName[sys].TotalOps; c > hf*1.07 {
			t.Errorf("%v (%.0f) more than 7%% above HatRPC-Function (%.0f)", sys, c, hf)
		}
	}
}

// TestWindowObeysLittlesLaw: with one op outstanding per closed-loop
// client, ops/s × mean latency summed over the four ops must come to the
// client count.
func TestWindowObeysLittlesLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	r := Run(RunConfig{Workload: WorkloadA(500), Systems: []SystemKind{SysHatFunction}, Clients: 32, Nodes: 5, Seed: 7})[0]
	n := 0.0
	for _, op := range AllOps {
		n += r.PerOp[op].OpsPerS * r.PerOp[op].AvgLatNs / 1e9
	}
	if math.Abs(n/32-1) > 0.1 {
		t.Errorf("%.0f ops/s in total hold %.1f ops in flight, want 32", r.TotalOps, n)
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	cfg := RunConfig{
		Workload: WorkloadA(200),
		Systems:  []SystemKind{SysHatFunction},
		Clients:  4,
		Nodes:    3,
		Seed:     6,
	}
	a := Run(cfg)[0].TotalOps
	b := Run(cfg)[0].TotalOps
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
