// Package atb implements the Apache Thrift Benchmarks (ATB) of §5.1: a
// latency benchmark, a multi-threaded throughput benchmark, and a mix
// communication benchmark issuing two differently-hinted RPCs. The
// benchmarks drive both the raw engine protocols (Figures 4 and 5) and
// the full generated-code HatRPC stack (Figures 11–14).
package atb

import (
	"fmt"

	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
)

// Fabric is a freshly-built simulated cluster with one server node and
// engines on every node.
type Fabric struct {
	Env     *sim.Env
	Cluster *simnet.Cluster
	Server  *engine.Engine   // node 0
	Clients []*engine.Engine // nodes 1..n-1
}

// FabricHook, when non-nil, runs on every freshly built Fabric before
// any benchmark traffic. cmd/figures uses it to attach an obs.Registry
// (and tracer) to all engines of every run in a sweep.
var FabricHook func(*Fabric)

// FaultSpec, when non-nil, is installed on every freshly built Cluster
// (cmd/figures sets it from the -faults/-loss/-jitter flags). Nil keeps
// the fabric fault-free and byte-identical to earlier builds.
var FaultSpec *simnet.FaultConfig

// CallDeadlineNs, when >0, arms engine.Config.CallDeadline on every
// fabric — enabling the retry/backoff layer so benchmarks complete under
// injected loss instead of hanging on a dropped packet. It is the floor:
// a sweep point whose messages need more attempts than it affords at
// FaultSpec's loss rate gets the longer engine.LossDeadline.
var CallDeadlineNs int64

// NewFabricWith builds the testbed (the paper's 10 nodes, or nodes if
// >0) for a run of size-byte payloads with an explicit engine sizing —
// benchmarks shrink MaxMsgSize to the run's payload regime so hundreds
// of connections fit in host memory.
func NewFabricWith(seed int64, nodes, size int, ecfg engine.Config) *Fabric {
	cfg := simnet.DefaultConfig()
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, cfg)
	if FaultSpec != nil {
		cl.InstallFaults(*FaultSpec)
	}
	if CallDeadlineNs > 0 {
		ecfg.CallDeadline = sim.Duration(CallDeadlineNs)
		if FaultSpec != nil {
			ecfg.CallDeadline = max(ecfg.CallDeadline, engine.LossDeadline(size, FaultSpec.DropProb))
		}
	}
	f := &Fabric{Env: env, Cluster: cl}
	f.Server = engine.New(cl.Node(0), ecfg)
	for i := 1; i < cl.Nodes(); i++ {
		f.Clients = append(f.Clients, engine.New(cl.Node(i), ecfg))
	}
	if FabricHook != nil {
		FabricHook(f)
	}
	return f
}

// Engines returns every engine of the fabric (server first).
func (f *Fabric) Engines() []*engine.Engine {
	return append([]*engine.Engine{f.Server}, f.Clients...)
}

// engineConfigFor sizes per-connection buffers to the benchmark's
// payload regime. fetch keeps the server-side one-sided regions needed
// by Pilaf/FaRM/RFP/HERD.
func engineConfigFor(size int, fetch bool) engine.Config {
	ecfg := engine.DefaultConfig()
	maxMsg := 4 * size
	if maxMsg < 16384 {
		maxMsg = 16384
	}
	ecfg.MaxMsgSize = maxMsg
	ecfg.EagerSlots = 16
	ecfg.NoFetchBufs = !fetch
	return ecfg
}

// needsFetch reports whether a protocol uses the server-published
// one-sided regions.
func needsFetch(proto engine.Protocol) bool {
	switch proto {
	case engine.Pilaf, engine.FaRM, engine.RFP, engine.HERD, engine.ProtoAuto:
		return true
	}
	return false
}

// clientEngine spreads client i round-robin across the client nodes.
func (f *Fabric) clientEngine(i int) *engine.Engine {
	return f.Clients[i%len(f.Clients)]
}

// checksumHandler emulates the paper's mix-benchmark server work: a
// checksum whose cost grows with payload size.
type checksumHandler struct {
	node *simnet.Node
}

func (h *checksumHandler) work(p *sim.Proc, n int) {
	// ~1 byte/cycle checksum: at 2.6 GHz that is ~0.38 ns/byte.
	h.node.CPU.Compute(p, sim.Duration(float64(n)*0.38))
}

func (h *checksumHandler) Echo(p *sim.Proc, payload []byte) ([]byte, error) {
	h.work(p, len(payload))
	return payload, nil
}

func (h *checksumHandler) LatCall(p *sim.Proc, payload []byte) ([]byte, error) {
	h.work(p, len(payload))
	return payload, nil
}

func (h *checksumHandler) TputCall(p *sim.Proc, payload []byte) ([]byte, error) {
	h.work(p, len(payload))
	return payload, nil
}

// ---------------------------------------------------------------------------
// Figure 4: protocol latency (raw engine, single client)

// LatencyPoint is one (protocol, polling, size) latency measurement.
type LatencyPoint struct {
	Proto engine.Protocol
	Busy  bool
	Size  int
	AvgNs float64
	P99Ns float64
}

// ProtoLatencyConfig parameterizes the Fig. 4 sweep.
type ProtoLatencyConfig struct {
	Protos []engine.Protocol
	Busy   []bool
	Sizes  []int
	Iters  int
	Seed   int64
}

// DefaultProtoLatencyConfig mirrors the paper's Fig. 4 axes.
func DefaultProtoLatencyConfig() ProtoLatencyConfig {
	return ProtoLatencyConfig{
		Protos: []engine.Protocol{
			engine.EagerSendRecv, engine.DirectWriteSend, engine.ChainedWriteSend,
			engine.WriteRNDV, engine.ReadRNDV, engine.DirectWriteIMM,
			engine.Pilaf, engine.FaRM, engine.RFP,
		},
		Busy:  []bool{true, false},
		Sizes: []int{4, 64, 512, 4096, 16384, 65536, 131072, 524288},
		Iters: 30,
		Seed:  42,
	}
}

// RunProtoLatency measures RPC-like round-trip latency for each
// configuration on a fresh two-node fabric.
func RunProtoLatency(cfg ProtoLatencyConfig) []LatencyPoint {
	var out []LatencyPoint
	for _, proto := range cfg.Protos {
		for _, busy := range cfg.Busy {
			for _, size := range cfg.Sizes {
				out = append(out, runOneLatency(cfg.Seed, proto, busy, size, cfg.Iters))
			}
		}
	}
	return out
}

func runOneLatency(seed int64, proto engine.Protocol, busy bool, size, iters int) LatencyPoint {
	f := NewFabricWith(seed, 2, size, engineConfigFor(size, needsFetch(proto)))
	srv := f.Server.Serve("atb", func(p *sim.Proc, fn uint32, req []byte) []byte {
		return req
	})
	srv.Busy = busy
	srv.NUMABind = true
	var s stats.Sample
	f.Env.Spawn("client", func(p *sim.Proc) {
		c := f.Clients[0].Dial(p, f.Server.Node(), "atb")
		c.SetNUMABound(true)
		payload := make([]byte, size)
		opts := engine.CallOpts{Proto: proto, Busy: busy}
		for i := 0; i < 3; i++ { // warmup
			c.Call(p, 1, payload, opts)
		}
		for i := 0; i < iters; i++ {
			start := p.Now()
			if _, err := c.Call(p, 1, payload, opts); err != nil {
				panic(err)
			}
			s.Add(float64(p.Now() - start))
		}
		f.Env.Stop()
	})
	f.Env.Run()
	f.Env.Shutdown()
	return LatencyPoint{Proto: proto, Busy: busy, Size: size, AvgNs: s.Mean(), P99Ns: s.Percentile(99)}
}

// ---------------------------------------------------------------------------
// Figure 5: protocol throughput (raw engine, many clients)

// ThroughputPoint is one (protocol, polling, size, clients) measurement.
type ThroughputPoint struct {
	Proto   engine.Protocol
	Busy    bool
	Size    int
	Clients int
	OpsPerS float64
	MBps    float64
	// AvgLatNs is the mean per-op latency observed during the run.
	AvgLatNs float64
}

// ProtoThroughputConfig parameterizes the Fig. 5 sweep.
type ProtoThroughputConfig struct {
	Protos     []engine.Protocol
	Busy       []bool
	Sizes      []int
	Clients    []int
	DurationNs int64
	Seed       int64
}

// DefaultProtoThroughputConfig mirrors Fig. 5: its five headline
// protocols, 512 B and 128 KB messages, client counts spanning
// under/full/over subscription of the 28-core server.
func DefaultProtoThroughputConfig() ProtoThroughputConfig {
	return ProtoThroughputConfig{
		Protos: []engine.Protocol{
			engine.EagerSendRecv, engine.DirectWriteSend, engine.DirectWriteIMM,
			engine.WriteRNDV, engine.RFP,
		},
		Busy:       []bool{true, false},
		Sizes:      []int{512, 131072},
		Clients:    []int{1, 4, 16, 28, 64, 128, 256, 512},
		DurationNs: 400_000,
		Seed:       7,
	}
}

// RunProtoThroughput measures aggregate throughput per configuration.
func RunProtoThroughput(cfg ProtoThroughputConfig) []ThroughputPoint {
	var out []ThroughputPoint
	for _, proto := range cfg.Protos {
		for _, busy := range cfg.Busy {
			for _, size := range cfg.Sizes {
				for _, nc := range cfg.Clients {
					out = append(out, runOneThroughput(cfg.Seed, proto, busy, size, nc, cfg.DurationNs))
				}
			}
		}
	}
	return out
}

func runOneThroughput(seed int64, proto engine.Protocol, busy bool, size, nClients int, durNs int64) ThroughputPoint {
	f := NewFabricWith(seed, 10, size, engineConfigFor(size, needsFetch(proto)))
	srv := f.Server.Serve("atb", func(p *sim.Proc, fn uint32, req []byte) []byte {
		return req
	})
	srv.Busy = busy
	// The paper binds NUMA when the client count fits the NIC-local
	// socket (under-subscription).
	numaBind := nClients <= f.Server.Node().LocalCores()
	srv.NUMABind = numaBind

	warmup := sim.Time(200_000)
	deadline := warmup + sim.Time(durNs)
	totalOps := 0
	var lat stats.Sample
	for i := 0; i < nClients; i++ {
		i := i
		f.Env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
			c := f.clientEngine(i).Dial(p, f.Server.Node(), "atb")
			c.SetNUMABound(numaBind)
			payload := make([]byte, size)
			opts := engine.CallOpts{Proto: proto, Busy: busy}
			for p.Now() < warmup {
				if _, err := c.Call(p, 1, payload, opts); err != nil {
					panic(err)
				}
			}
			for p.Now() < deadline {
				start := p.Now()
				if _, err := c.Call(p, 1, payload, opts); err != nil {
					panic(err)
				}
				lat.Add(float64(p.Now() - start))
				totalOps++
			}
		})
	}
	f.Env.Run()
	f.Env.Shutdown()
	secs := float64(durNs) / 1e9
	ops := float64(totalOps) / secs
	return ThroughputPoint{
		Proto: proto, Busy: busy, Size: size, Clients: nClients,
		OpsPerS:  ops,
		MBps:     ops * float64(size) / 1e6,
		AvgLatNs: lat.Mean(),
	}
}
