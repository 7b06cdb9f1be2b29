package atb

import (
	"fmt"
	"strconv"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/stats"
	"hatrpc/internal/trdma"
)

// System names one line of Figures 11–14: HatRPC (hint-driven) or a
// fixed-protocol baseline.
type System struct {
	Name  string
	Force engine.Protocol // ProtoAuto = hint-driven HatRPC
}

// DefaultSystems are the comparison set of §5.2–§5.3.
func DefaultSystems() []System {
	return []System{
		{Name: "HatRPC", Force: engine.ProtoAuto},
		{Name: "Hybrid-EagerRNDV", Force: engine.HybridEagerRNDV},
		{Name: "Direct-Write-Send", Force: engine.DirectWriteSend},
		{Name: "Direct-WriteIMM", Force: engine.DirectWriteIMM},
		{Name: "RFP", Force: engine.RFP},
	}
}

// hintTable builds the ATB service hint table for one benchmark
// configuration: the service-level hints carry the run's performance
// goal, expected concurrency and payload size (as the paper's IDL files
// do per experiment), and the mix functions keep their goal overrides.
func hintTable(goal hints.PerfGoal, conc, payload int, numaBind bool) *trdma.ServiceHints {
	shared := map[hints.Key]string{
		hints.KeyPerfGoal:    string(goal),
		hints.KeyConcurrency: strconv.Itoa(conc),
	}
	if payload > 0 {
		shared[hints.KeyPayloadSize] = strconv.Itoa(payload)
	}
	var server map[hints.Key]string
	if numaBind {
		server = map[hints.Key]string{hints.KeyNUMA: "bind"}
	}
	return &trdma.ServiceHints{
		ServiceName: "ATBench",
		Service:     hints.MakeSet(shared, server, nil),
		Functions: map[string]*hints.Set{
			"Echo":     hints.NewSet(),
			"LatCall":  hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "latency"}, nil, nil),
			"TputCall": hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "throughput"}, nil, nil),
		},
		FnIDs:  atbgen.ATBenchHints.FnIDs,
		Oneway: atbgen.ATBenchHints.Oneway,
	}
}

// baselineBusy is the polling discipline given to fixed-protocol
// baselines: spin while the connection count fits the cores, interrupt
// beyond (a generous baseline configuration — pinning them to busy
// polling at 512 connections would collapse them unfairly).
func baselineBusy(clients, cores int) bool { return clients <= cores }

// startService boots the generated ATB service over the fabric and
// returns a dial function for clients.
func startService(f *Fabric, sh *trdma.ServiceHints, forceBusyServer *bool) {
	h := &checksumHandler{node: f.Server.Node()}
	srv := trdma.NewServer(f.Server, sh, atbgen.NewATBenchProcessor(h))
	if forceBusyServer != nil {
		srv.EngineServer().Busy = *forceBusyServer
	}
}

// HintLatencyPoint is one Figure 11 measurement.
type HintLatencyPoint struct {
	System string
	Size   int
	AvgNs  float64
	P99Ns  float64
}

// HintLatencyConfig parameterizes Figure 11.
type HintLatencyConfig struct {
	Systems []System
	Sizes   []int
	Iters   int
	Seed    int64
}

// DefaultHintLatencyConfig mirrors the paper: payloads 4 B – 512 KB,
// service hints "perf_goal=latency, concurrency=1".
func DefaultHintLatencyConfig() HintLatencyConfig {
	return HintLatencyConfig{
		Systems: DefaultSystems(),
		Sizes:   []int{4, 64, 512, 4096, 16384, 65536, 131072, 524288},
		Iters:   30,
		Seed:    11,
	}
}

// RunHintLatency measures service-level-hint latency (Fig. 11).
func RunHintLatency(cfg HintLatencyConfig) []HintLatencyPoint {
	var out []HintLatencyPoint
	for _, sys := range cfg.Systems {
		for _, size := range cfg.Sizes {
			out = append(out, runOneHintLatency(cfg.Seed, sys, size, cfg.Iters))
		}
	}
	return out
}

func runOneHintLatency(seed int64, sys System, size, iters int) HintLatencyPoint {
	f := NewFabricWith(seed, 2, size, engineConfigFor(size, needsFetch(sys.Force)))
	sh := hintTable(hints.GoalLatency, 1, size, true)
	var dialOpt *trdma.DialOptions
	if sys.Force != engine.ProtoAuto {
		force := sys.Force
		dialOpt = &trdma.DialOptions{ForceProto: &force, ForceBusy: true}
		busy := true
		startService(f, sh, &busy)
	} else {
		startService(f, sh, nil)
	}
	var s stats.Sample
	f.Env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, f.Clients[0], f.Server.Node(), sh, dialOpt)
		c := atbgen.NewATBenchClient(tr)
		payload := make([]byte, size)
		for i := 0; i < 3; i++ {
			if _, err := c.Echo(p, payload); err != nil {
				panic(err)
			}
		}
		for i := 0; i < iters; i++ {
			start := p.Now()
			if _, err := c.Echo(p, payload); err != nil {
				panic(err)
			}
			s.Add(float64(p.Now() - start))
		}
		f.Env.Stop()
	})
	f.Env.Run()
	f.Env.Shutdown()
	return HintLatencyPoint{System: sys.Name, Size: size, AvgNs: s.Mean(), P99Ns: s.Percentile(99)}
}

// HintThroughputPoint is one Figure 12 measurement.
type HintThroughputPoint struct {
	System  string
	Size    int
	Clients int
	OpsPerS float64
	MBps    float64
}

// HintThroughputConfig parameterizes Figure 12.
type HintThroughputConfig struct {
	Systems    []System
	Sizes      []int
	Clients    []int
	DurationNs int64
	Seed       int64
}

// DefaultHintThroughputConfig mirrors the paper: 512 B and 128 KB, 1–512
// clients.
func DefaultHintThroughputConfig() HintThroughputConfig {
	return HintThroughputConfig{
		Systems:    DefaultSystems(),
		Sizes:      []int{512, 131072},
		Clients:    []int{1, 4, 16, 28, 64, 128, 256, 512},
		DurationNs: 400_000,
		Seed:       12,
	}
}

// RunHintThroughput measures service-level-hint throughput (Fig. 12).
func RunHintThroughput(cfg HintThroughputConfig) []HintThroughputPoint {
	var out []HintThroughputPoint
	for _, sys := range cfg.Systems {
		for _, size := range cfg.Sizes {
			for _, nc := range cfg.Clients {
				out = append(out, runOneHintThroughput(cfg.Seed, sys, size, nc, cfg.DurationNs))
			}
		}
	}
	return out
}

func runOneHintThroughput(seed int64, sys System, size, nClients int, durNs int64) HintThroughputPoint {
	f := NewFabricWith(seed, 10, size, engineConfigFor(size, needsFetch(sys.Force)))
	cores := f.Server.Cores()
	numaBind := nClients <= f.Server.Node().LocalCores()
	sh := hintTable(hints.GoalThroughput, nClients, size, numaBind)
	var dialOpt *trdma.DialOptions
	if sys.Force != engine.ProtoAuto {
		force := sys.Force
		busy := baselineBusy(nClients, cores)
		dialOpt = &trdma.DialOptions{ForceProto: &force, ForceBusy: busy}
		startService(f, sh, &busy)
	} else {
		startService(f, sh, nil)
	}

	warmup := sim.Time(200_000)
	deadline := warmup + sim.Time(durNs)
	totalOps := 0
	for i := 0; i < nClients; i++ {
		i := i
		f.Env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
			tr := trdma.Dial(p, f.clientEngine(i), f.Server.Node(), sh, dialOpt)
			c := atbgen.NewATBenchClient(tr)
			payload := make([]byte, size)
			for p.Now() < warmup {
				if _, err := c.Echo(p, payload); err != nil {
					panic(err)
				}
			}
			for p.Now() < deadline {
				if _, err := c.Echo(p, payload); err != nil {
					panic(err)
				}
				totalOps++
			}
		})
	}
	f.Env.Run()
	f.Env.Shutdown()
	ops := float64(totalOps) / (float64(durNs) / 1e9)
	return HintThroughputPoint{
		System: sys.Name, Size: size, Clients: nClients,
		OpsPerS: ops, MBps: ops * float64(size) / 1e6,
	}
}

// MixPoint is one Figure 13/14 measurement: latency of the
// latency-hinted RPC and throughput of the throughput-hinted RPC, under a
// 50/50 mixed workload.
type MixPoint struct {
	System   string
	Size     int
	Clients  int
	LatAvgNs float64
	TputOpsS float64
}

// MixConfig parameterizes Figures 13 and 14.
type MixConfig struct {
	Systems    []System
	Size       int
	Clients    []int
	DurationNs int64
	Seed       int64
}

// DefaultMixConfig512 is the Figure 13 setup (512 B payloads).
func DefaultMixConfig512() MixConfig {
	return MixConfig{
		Systems: DefaultSystems(), Size: 512,
		Clients:    []int{1, 4, 16, 28, 64, 128, 256, 512},
		DurationNs: 400_000, Seed: 13,
	}
}

// DefaultMixConfig128K is the Figure 14 setup (128 KB payloads).
func DefaultMixConfig128K() MixConfig {
	c := DefaultMixConfig512()
	c.Size = 131072
	c.Seed = 14
	return c
}

// RunMix measures the mixed-workload benchmark (Figs. 13–14): each client
// flips a fair coin per call between the latency-hinted and the
// throughput-hinted RPC.
func RunMix(cfg MixConfig) []MixPoint {
	var out []MixPoint
	for _, sys := range cfg.Systems {
		for _, nc := range cfg.Clients {
			out = append(out, runOneMix(cfg.Seed, sys, cfg.Size, nc, cfg.DurationNs))
		}
	}
	return out
}

func runOneMix(seed int64, sys System, size, nClients int, durNs int64) MixPoint {
	f := NewFabricWith(seed, 10, size, engineConfigFor(size, needsFetch(sys.Force)))
	cores := f.Server.Cores()
	numaBind := nClients <= f.Server.Node().LocalCores()
	sh := hintTable(hints.GoalThroughput, nClients, size, numaBind)
	var dialOpt *trdma.DialOptions
	if sys.Force != engine.ProtoAuto {
		force := sys.Force
		busy := baselineBusy(nClients, cores)
		dialOpt = &trdma.DialOptions{ForceProto: &force, ForceBusy: busy}
		startService(f, sh, &busy)
	} else {
		startService(f, sh, nil)
	}

	warmup := sim.Time(200_000)
	deadline := warmup + sim.Time(durNs)
	var lat stats.Sample
	tputOps := 0
	for i := 0; i < nClients; i++ {
		i := i
		f.Env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
			tr := trdma.Dial(p, f.clientEngine(i), f.Server.Node(), sh, dialOpt)
			c := atbgen.NewATBenchClient(tr)
			payload := make([]byte, size)
			rng := p.Env().Rand()
			for p.Now() < deadline {
				latCall := rng.Intn(2) == 0
				start := p.Now()
				var err error
				if latCall {
					_, err = c.LatCall(p, payload)
				} else {
					_, err = c.TputCall(p, payload)
				}
				if err != nil {
					panic(err)
				}
				if p.Now() < warmup {
					continue
				}
				if latCall {
					lat.Add(float64(p.Now() - start))
				} else {
					tputOps++
				}
			}
		})
	}
	f.Env.Run()
	f.Env.Shutdown()
	return MixPoint{
		System: sys.Name, Size: size, Clients: nClients,
		LatAvgNs: lat.Mean(),
		TputOpsS: float64(tputOps) / (float64(durNs) / 1e9),
	}
}
