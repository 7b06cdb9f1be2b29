// Package atb implements the Apache Thrift Benchmarks (ATB) of §5.1: a
// latency benchmark, a multi-threaded throughput benchmark, and a mix
// communication benchmark issuing two differently-hinted RPCs. The
// evaluation points the same three programs at different subjects — the
// raw engine protocols (Figures 4 and 5) and the generated-code HatRPC
// stack, hint-driven or pinned to one protocol (Figures 11–14) — so the
// package is one Sweep made of two dialers (Subject.boot) and two loops
// (countLoop, windowLoop): the harness is held fixed and the mechanism
// alone varies. The window loop measures in stats.Window, the closed-loop
// window YCSB shares.
package atb

import (
	"fmt"
	"strconv"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
	"hatrpc/internal/trdma"
)

// Fabric is a freshly-built simulated cluster with one server node and
// engines on every node.
type Fabric struct {
	Env     *sim.Env
	Cluster *simnet.Cluster
	Server  *engine.Engine   // node 0
	Clients []*engine.Engine // nodes 1..n-1
}

// Testbed is what every fabric of a sweep is built with; the zero value
// is the paper's fault-free testbed, unobserved.
type Testbed struct {
	// Faults, when non-nil, is installed on every fresh cluster
	// (cmd/figures sets it from -faults/-loss/-jitter).
	Faults *simnet.FaultConfig
	// DeadlineNs, when >0, arms engine.Config.CallDeadline — enabling the
	// retry/backoff layer so a sweep completes under injected loss instead
	// of hanging on a dropped packet. It is the floor: a point whose
	// messages need more attempts than it affords at Faults' loss rate
	// gets the longer engine.LossDeadline.
	DeadlineNs int64
	// Hook, when non-nil, runs on every fresh Fabric before any traffic
	// (cmd/figures attaches its obs.Registry and tracer there).
	Hook func(*Fabric)
}

// newFabric builds the testbed (the paper's 10 nodes, or nodes if >0)
// for a run of size-byte payloads with an explicit engine sizing —
// benchmarks shrink MaxMsgSize to the run's payload regime so hundreds
// of connections fit in host memory.
func (tb Testbed) newFabric(seed int64, nodes, size int, ecfg engine.Config) *Fabric {
	cfg := simnet.DefaultConfig()
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, cfg)
	if tb.Faults != nil {
		cl.InstallFaults(*tb.Faults)
	}
	if tb.DeadlineNs > 0 {
		ecfg.CallDeadline = sim.Duration(tb.DeadlineNs)
		if tb.Faults != nil {
			ecfg.CallDeadline = max(ecfg.CallDeadline, engine.LossDeadline(size, tb.Faults.DropProb))
		}
	}
	f := &Fabric{Env: env, Cluster: cl}
	f.Server = engine.New(cl.Node(0), ecfg)
	for i := 1; i < cl.Nodes(); i++ {
		f.Clients = append(f.Clients, engine.New(cl.Node(i), ecfg))
	}
	if tb.Hook != nil {
		tb.Hook(f)
	}
	return f
}

// Engines returns every engine of the fabric (server first).
func (f *Fabric) Engines() []*engine.Engine {
	return append([]*engine.Engine{f.Server}, f.Clients...)
}

// engineConfigFor sizes per-connection buffers to the benchmark's
// payload regime. fetch keeps the server-side one-sided regions
// (engine.Protocol.NeedsFetchBufs; a planned subject may choose RFP).
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
// Subjects: how a client connects

// Subject is what a sweep measures: one line of a figure.
type Subject struct {
	Name string // the figure's row label
	// Proto is the protocol every call uses; engine.ProtoAuto (stub only)
	// leaves the choice to the hints — HatRPC itself.
	Proto engine.Protocol
	// Stub drives the generated ATBench client and checksum service
	// (Figs. 11–14); false is engine.Conn.Call against a bare echo server
	// (Figs. 4–5).
	Stub bool
	// Busy is a raw subject's polling mode, on both sides. A pinned stub's
	// is derived per point (see bootStub); HatRPC's comes from the hints.
	Busy bool
}

// Raw is protocol proto under one polling mode on the bare engine.
func Raw(proto engine.Protocol, busy bool) Subject {
	return Subject{Name: proto.String(), Proto: proto, Busy: busy}
}

// rawBothPollings lists each protocol busy-polled, then event-driven.
func rawBothPollings(protos ...engine.Protocol) []Subject {
	var out []Subject
	for _, proto := range protos {
		out = append(out, Raw(proto, true), Raw(proto, false))
	}
	return out
}

// systems are the comparison set of §5.2–§5.3: hint-driven HatRPC and the
// generated stub pinned to each fixed-protocol baseline.
func systems() []Subject {
	return []Subject{
		{Name: "HatRPC", Proto: engine.ProtoAuto, Stub: true},
		{Name: "Hybrid-EagerRNDV", Proto: engine.HybridEagerRNDV, Stub: true},
		{Name: "Direct-Write-Send", Proto: engine.DirectWriteSend, Stub: true},
		{Name: "Direct-WriteIMM", Proto: engine.DirectWriteIMM, Stub: true},
		{Name: "RFP", Proto: engine.RFP, Stub: true},
	}
}

// The ATBench functions a loop may call. Echo is both measured and
// counted; the mix splits the roles between LatCall and TputCall.
const (
	fnEcho = iota
	fnLat
	fnTput
)

// callFn issues one RPC of the given ATBench function from the process
// that connected the client.
type callFn func(fn int, payload []byte) error

// boot starts the subject's server side on f for a point of clients
// size-byte callers pursuing goal, and returns how client i connects. The
// paper binds NUMA while the clients fit the NIC-local socket
// (under-subscription).
func (s Subject) boot(f *Fabric, goal hints.PerfGoal, size, clients int) func(p *sim.Proc, i int) callFn {
	numaBind := clients <= f.Server.Node().LocalCores()
	if s.Stub {
		return s.bootStub(f, goal, size, clients, numaBind)
	}
	srv := f.Server.Serve("atb", func(p *sim.Proc, fn uint32, req []byte) []byte {
		return req
	})
	srv.Busy = s.Busy
	srv.NUMABind = numaBind
	opts := engine.CallOpts{Proto: s.Proto, Busy: s.Busy}
	return func(p *sim.Proc, i int) callFn {
		c := f.clientEngine(i).Dial(p, f.Server.Node(), "atb")
		c.SetNUMABound(numaBind)
		return func(_ int, payload []byte) error {
			_, err := c.Call(p, 1, payload, opts)
			return err
		}
	}
}

// bootStub serves the generated ATBench service under the point's hint
// table: the service-level hints carry the run's performance goal,
// expected concurrency and payload size (as the paper's IDL files do per
// experiment), and the mix functions keep their goal overrides.
func (s Subject) bootStub(f *Fabric, goal hints.PerfGoal, size, clients int, numaBind bool) func(p *sim.Proc, i int) callFn {
	var server map[hints.Key]string
	if numaBind {
		server = map[hints.Key]string{hints.KeyNUMA: "bind"}
	}
	sh := &trdma.ServiceHints{
		ServiceName: "ATBench",
		Service: hints.MakeSet(map[hints.Key]string{
			hints.KeyPerfGoal:    string(goal),
			hints.KeyConcurrency: strconv.Itoa(clients),
			hints.KeyPayloadSize: strconv.Itoa(size),
		}, server, nil),
		Functions: map[string]*hints.Set{
			"Echo":     hints.NewSet(),
			"LatCall":  hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "latency"}, nil, nil),
			"TputCall": hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "throughput"}, nil, nil),
		},
		FnIDs:  atbgen.ATBenchHints.FnIDs,
		Oneway: atbgen.ATBenchHints.Oneway,
	}
	srv := trdma.NewServer(f.Server, sh, atbgen.NewATBenchProcessor(&checksumHandler{node: f.Server.Node()}))
	var dialOpt *trdma.DialOptions
	if s.Proto != engine.ProtoAuto {
		// A fixed-protocol baseline spins while the connection count fits
		// the cores and takes interrupts beyond: a generous configuration —
		// pinning it to busy polling at 512 connections would collapse it
		// unfairly.
		opts := engine.CallOpts{Proto: s.Proto, Busy: clients <= f.Server.Cores()}
		srv.EngineServer().Busy = opts.Busy
		dialOpt = &trdma.DialOptions{Policy: func(string, int) engine.CallOpts { return opts }}
	}
	return func(p *sim.Proc, i int) callFn {
		c := atbgen.NewATBenchClient(trdma.Dial(p, f.clientEngine(i), f.Server.Node(), sh, dialOpt))
		return func(fn int, payload []byte) (err error) {
			switch fn {
			case fnLat:
				_, err = c.LatCall(p, payload)
			case fnTput:
				_, err = c.TputCall(p, payload)
			default:
				_, err = c.Echo(p, payload)
			}
			return err
		}
	}
}

// ---------------------------------------------------------------------------
// The sweep: subjects × sizes × client counts, one fresh fabric per point

// Sweep is one figure's axes. Clients selects the loop: nil is the latency
// benchmark (one client on a two-node fabric, 3 warm-up then Iters measured
// calls), otherwise each count runs that many closed-loop clients on the
// ten-node fabric through one stats.Window.
type Sweep struct {
	Testbed  Testbed
	Subjects []Subject
	Sizes    []int
	Clients  []int
	Iters    int
	// Mix makes every call of the window loop a fair coin between the
	// latency-hinted LatCall (measured, not counted) and the
	// throughput-hinted TputCall (counted, not measured); plain Echo is
	// both.
	Mix  bool
	Seed int64
}

// Point is one measurement: the columns of every ATB figure.
type Point struct {
	Subject
	Size    int
	Clients int
	// AvgNs and P99Ns are over the measured calls (Echo, LatCall).
	AvgNs, P99Ns float64
	// OpsPerS and MBps are the counted calls (Echo, TputCall) of the
	// window loop per second of its window.
	OpsPerS, MBps float64
}

// Fig04 is protocol latency: nine protocols × polling on the raw engine.
func Fig04() Sweep {
	return Sweep{
		Subjects: rawBothPollings(
			engine.EagerSendRecv, engine.DirectWriteSend, engine.ChainedWriteSend,
			engine.WriteRNDV, engine.ReadRNDV, engine.DirectWriteIMM,
			engine.Pilaf, engine.FaRM, engine.RFP),
		Sizes: []int{4, 64, 512, 4096, 16384, 65536, 131072, 524288},
		Iters: 30,
		Seed:  42,
	}
}

// Fig05 is protocol throughput: the five headline protocols, 512 B and
// 128 KB messages, client counts spanning under/full/over subscription of
// the 28-core server.
func Fig05() Sweep {
	return Sweep{
		Subjects: rawBothPollings(
			engine.EagerSendRecv, engine.DirectWriteSend, engine.DirectWriteIMM,
			engine.WriteRNDV, engine.RFP),
		Sizes:   []int{512, 131072},
		Clients: []int{1, 4, 16, 28, 64, 128, 256, 512},
		Seed:    7,
	}
}

// Fig11 is service-level-hint latency: payloads 4 B – 512 KB under
// "perf_goal=latency, concurrency=1".
func Fig11() Sweep {
	return Sweep{Subjects: systems(), Sizes: Fig04().Sizes, Iters: 30, Seed: 11}
}

// Fig12 is service-level-hint throughput: 512 B and 128 KB, 1–512 clients.
func Fig12() Sweep {
	return Sweep{
		Subjects: systems(), Sizes: Fig05().Sizes, Clients: Fig05().Clients, Seed: 12,
	}
}

// Fig13 is the function-level-hint mix at 512 B.
func Fig13() Sweep {
	return Sweep{
		Subjects: systems(), Sizes: []int{512}, Clients: Fig05().Clients, Mix: true, Seed: 13,
	}
}

// Fig14 is the mix at 128 KB.
func Fig14() Sweep {
	return Sweep{
		Subjects: systems(), Sizes: []int{131072}, Clients: Fig05().Clients, Mix: true, Seed: 14,
	}
}

// Points lists the sweep's points, unmeasured, in Run's order:
// subject-major, then size, then client count. Every point is measured
// on a fabric of its own, so a front-end may measure them in any order,
// or at once, with Measure.
func (s Sweep) Points() []Point {
	clients := s.Clients
	if clients == nil {
		clients = []int{1}
	}
	var out []Point
	for _, sub := range s.Subjects {
		for _, size := range s.Sizes {
			for _, nc := range clients {
				out = append(out, Point{Subject: sub, Size: size, Clients: nc})
			}
		}
	}
	return out
}

// Run measures every point, in order.
func (s Sweep) Run() []Point {
	out := s.Points()
	for i := range out {
		out[i] = s.Measure(out[i])
	}
	return out
}

// Measure measures the point of the sweep that pt names (its Subject,
// Size and Clients).
func (s Sweep) Measure(pt Point) Point {
	sub, size, clients := pt.Subject, pt.Size, pt.Clients
	window := s.Clients != nil
	nodes, goal := 2, hints.GoalLatency
	if window {
		nodes, goal = 10, hints.GoalThroughput
	}
	f := s.Testbed.newFabric(s.Seed, nodes, size, engineConfigFor(size, sub.Proto == engine.ProtoAuto || sub.Proto.NeedsFetchBufs()))
	dial := sub.boot(f, goal, size, clients)
	var lat stats.Sample // measured calls
	var done [3]int      // calls completed inside the window, by fn
	w := stats.NewWindow(clients)
	for i := 0; i < clients; i++ {
		name := "client"
		if window {
			name = fmt.Sprintf("cl%d", i)
		}
		f.Env.Spawn(name, func(p *sim.Proc) {
			rpc := dial(p, i)
			payload := make([]byte, size)
			// Any failed call, warm-up included, is a broken run, not a
			// data point.
			call := func(fn int) {
				if err := rpc(fn, payload); err != nil {
					panic(err)
				}
			}
			if window {
				s.windowLoop(p, call, w, &lat, &done)
			} else {
				s.countLoop(p, call, &lat)
				f.Env.Stop()
			}
		})
	}
	f.Env.Run()
	f.Env.Shutdown()
	pt.AvgNs, pt.P99Ns = lat.Mean(), lat.Percentile(99)
	if window {
		pt.OpsPerS = w.Rate(done[fnEcho] + done[fnTput])
		pt.MBps = pt.OpsPerS * float64(size) / 1e6
		// Payload past the server's link, LatCalls included, is a broken run, too.
		all := w.Rate(done[fnEcho]+done[fnLat]+done[fnTput]) * float64(size) / 1e6
		if line := f.Cluster.Config().LinkGbps * 1e3 / 8; all > 1.01*line {
			panic(fmt.Sprintf("atb: %s %dB × %d carries %.0f MB/s through a %.0f MB/s link", sub.Name, size, clients, all, line))
		}
	}
	return pt
}

// countLoop is the latency benchmark: 3 warm-up calls, then Iters measured.
func (s Sweep) countLoop(p *sim.Proc, call func(fn int), lat *stats.Sample) {
	for i := -3; i < s.Iters; i++ {
		start := p.Now()
		call(fnEcho)
		if i >= 0 {
			lat.Add(float64(p.Now() - start))
		}
	}
}

// windowLoop is the throughput and mix benchmark: closed-loop calls while
// the window runs, those it counts tallied.
func (s Sweep) windowLoop(p *sim.Proc, call func(fn int), w *stats.Window, lat *stats.Sample, done *[3]int) {
	rng := p.Env().Rand() // shared by all clients; drawn by the mix only
	for first := true; w.Running(p.Now()); first = false {
		fn := fnEcho
		if s.Mix {
			fn = fnLat + rng.Intn(2)
		}
		start := p.Now()
		call(fn)
		if w.Done(first, start, p.Now()) {
			done[fn]++
			if fn != fnTput {
				lat.Add(float64(p.Now() - start))
			}
		}
	}
}
