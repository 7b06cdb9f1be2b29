package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/hints"
	"hatrpc/internal/ipoib"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
	"hatrpc/internal/verbs"
	"hatrpc/internal/ycsb"
)

// The traced pass has two halves. workloadLayerMetrics reads what the
// program counted at its layer boundaries while the workload ran (obs
// counters attached through SetObs, store and cluster stats, harness
// spans). The micro-runs below time each layer's public entry points on
// their own: host cost with the wall clock around ≥ 10 000 calls, sim
// cost with the DES clock around one unloaded client, each layer minus
// the layer beneath it (Brock et al.'s component-cost method).

// ---------------------------------------------------------------------------
// Per-workload counts.

var verbsOpcodes = func() []string {
	var out []string
	for op := verbs.OpSend; op <= verbs.OpRecv; op++ {
		out = append(out, op.String())
	}
	return out
}()

var engineProtocols = func() []string {
	var out []string
	for pr := engine.ProtoAuto; pr <= engine.HybridEagerRead; pr++ {
		out = append(out, pr.String())
	}
	return out
}()

// countedNames lists every obs counter the per-workload metrics read, so
// a snapshot at the window edge can be subtracted from the final values.
func countedNames() []string {
	names := []string{
		"verbs.tx.inline", "verbs.tx.dma", "verbs.rnr_naks",
		"engine.eager_frags", "engine.rndv_pool.hit", "engine.rndv_pool.miss", "engine.retries",
	}
	for _, op := range verbsOpcodes {
		names = append(names, "verbs.tx."+op, "verbs.cqe."+op)
	}
	for _, pr := range engineProtocols {
		names = append(names, "engine.calls."+pr, "engine.shed."+pr, "engine.credit_stalls."+pr)
	}
	return names
}

func counterSnapshot(tr *tracing) map[string]float64 {
	snap := map[string]float64{}
	for _, n := range countedNames() {
		snap[n] = tr.counter(n)
	}
	return snap
}

func workloadLayerMetrics(s *scn, base map[string]float64) map[string]float64 {
	tr := s.tr
	d := func(name string) float64 { return tr.counter(name) - base[name] }
	sum := func(prefix string, suffixes []string) float64 {
		var t float64
		for _, x := range suffixes {
			t += d(prefix + x)
		}
		return t
	}
	ops := float64(s.attempted)
	m := map[string]float64{
		"fail_share":    share(float64(s.failed+s.refused), ops),
		"ops_attempted": ops,
		"ops_failed":    float64(s.failed),
		"lat_samples":   float64(len(s.lat)),
		"gomaxprocs":    float64(runtime.GOMAXPROCS(0)),

		"verbs.wr_per_op":    share(sum("verbs.tx.", verbsOpcodes), ops),
		"verbs.cqe_per_op":   share(sum("verbs.cqe.", verbsOpcodes), ops),
		"verbs.inline_share": share(d("verbs.tx.inline"), d("verbs.tx.inline")+d("verbs.tx.dma")),
		"verbs.rnr_naks":     d("verbs.rnr_naks"),

		"engine.eager_frags_per_op":    share(d("engine.eager_frags"), ops),
		"engine.rndv_pool_hit_share":   share(d("engine.rndv_pool.hit"), d("engine.rndv_pool.hit")+d("engine.rndv_pool.miss")),
		"engine.retries_per_kop":       1000 * share(d("engine.retries"), ops),
		"engine.credit_stalls_per_kop": 1000 * share(sum("engine.credit_stalls.", engineProtocols), ops),
		"engine.shed_share":            share(sum("engine.shed.", engineProtocols), ops),
		"engine.gen_lag_p99_ns":        percentile(s.lag, 99),
	}
	calls := sum("engine.calls.", engineProtocols)
	named := 0.0
	for _, ps := range protoShort {
		c := d("engine.calls." + ps.proto.String())
		named += c
		m["engine.proto_share."+ps.name] = share(c, calls)
	}
	m["engine.proto_share.other"] = share(calls-named, calls)

	for op, short := range map[string]string{"Get": "get", "Put": "put", "MultiGet": "mget", "MultiPut": "mput"} {
		m["hatkv."+short+".sim_p50_ns"] = percentile(s.perOp[op], 50)
		m["hatkv."+short+".sim_p99_ns"] = percentile(s.perOp[op], 99)
	}
	for _, kind := range []string{"put_small", "put_large", "get"} {
		m["cluster."+kind+".sim_p50_ns"] = percentile(s.perOp[kind], 50)
		m["cluster."+kind+".sim_p99_ns"] = percentile(s.perOp[kind], 99)
	}

	// Spans of the primary op; self time = span − the part its children cover.
	m["span.client_sim_p50_ns"] = percentile(tr.durationsOf("client", s.w.primary), 50)
	m["span.handler_sim_p50_ns"] = percentile(tr.durationsOf("handler", s.w.primary), 50)
	m["span.handler_self_sim_p50_ns"] = percentile(tr.selfTimes("handler", "store", s.w.primary), 50)
	m["span.store_sim_p50_ns"] = percentile(tr.durationsOf("store", s.w.primary), 50)
	if s.w.name == "kv_read" || s.w.name == "kv_write" {
		m["hatkv.handler_share"] = share(total(tr.durations("handler")), total(tr.durations("client")))
	}
	if s.collect != nil {
		s.collect(m)
	}
	return m
}

func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ---------------------------------------------------------------------------
// Micro-run plumbing.

// hostLoop times n calls of fn on the host clock and reports ns and heap
// allocations per call.
func hostLoop(n int, fn func()) (nsPerCall, allocsPerCall float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	el := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// micro runs the layer micro-runs into out. scale shortens every loop
// for the smoke test (1 = the documented iteration counts).
type micro struct {
	scale float64
	seed  int64
	out   map[string]float64
}

// n scales an iteration count, never below 20 so medians stay defined.
func (m *micro) n(full int) int {
	if v := int(float64(full) * m.scale); v > 20 {
		return v
	}
	return 20
}

// pair is a fresh two-node cluster for an unloaded point-to-point run.
func pair() (*sim.Env, *simnet.Cluster) {
	env := sim.NewEnv(1)
	cfg := simnet.DefaultConfig()
	cfg.Nodes = 2
	return env, simnet.NewCluster(env, cfg)
}

const (
	sizeSmall = 512
	sizeBulk  = 128 << 10
)

var sizeNames = map[int]string{sizeSmall: "512", sizeBulk: "128k"}

// ---------------------------------------------------------------------------
// sim: the DES kernel.

func (m *micro) sim() {
	out, n := m.out, m.n(20_000)
	{ // two processes handing control back and forth on Signals
		env := sim.NewEnv(1)
		a, b := sim.NewSignal(env), sim.NewSignal(env)
		env.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b.Fire()
				a.Wait(p)
			}
			env.Stop()
		})
		env.Spawn("pong", func(p *sim.Proc) {
			for {
				b.Wait(p)
				a.Fire()
			}
		})
		t := time.Now()
		env.Run()
		out["sim.switch_host_ns"] = float64(time.Since(t).Nanoseconds()) / float64(2*n)
		env.Shutdown()
	}
	{ // a chain of timer callbacks
		env := sim.NewEnv(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.After(10, tick)
			}
		}
		env.After(10, tick)
		t := time.Now()
		env.Run()
		out["sim.timer_host_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n)
		env.Shutdown()
	}
	{ // spawn, first dispatch and exit of a process
		env := sim.NewEnv(1)
		t := time.Now()
		for i := 0; i < n; i++ {
			env.Spawn("p", func(p *sim.Proc) {})
		}
		env.Run()
		out["sim.spawn_host_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n)
		env.Shutdown()
	}
	{ // processor-sharing CPU with 8 runnable tasks
		env := sim.NewEnv(1)
		cpu := sim.NewCPU(env, 4)
		for i := 0; i < 8; i++ {
			env.Spawn("w", func(p *sim.Proc) {
				for j := 0; j < n/8; j++ {
					cpu.Compute(p, 1000)
				}
			})
		}
		t := time.Now()
		env.Run()
		out["sim.compute_host_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n/8*8)
		env.Shutdown()
	}
}

// ---------------------------------------------------------------------------
// simnet: the fabric.

// wireRTT is the data path's fabric share of one request/reply exchange:
// serialisation through the sender's TX gate, propagation, and the
// receiver's RX gate, each way, for the payload plus the verbs wire
// header — read off the DES clock around the gates' public Reserve.
func wireRTT(reqSize, respSize int) float64 {
	_, cl := pair()
	hdr := verbs.DefaultCostModel().WireHeaderBytes
	now := sim.Time(0)
	for _, leg := range []struct {
		from, to *simnet.Node
		size     int
	}{{cl.Node(0), cl.Node(1), reqSize}, {cl.Node(1), cl.Node(0), respSize}} {
		tx := leg.from.TX.Reserve(now, leg.size+hdr)
		now = leg.to.RX.Reserve(tx+sim.Time(cl.PropDelay()), leg.size+hdr)
	}
	return float64(now)
}

func (m *micro) simnet() {
	out, n := m.out, m.n(10_000)
	env, cl := pair()
	ln := cl.Node(1).Listen("m")
	env.Spawn("srv", func(p *sim.Proc) {
		ep := ln.Accept(p)
		for {
			ep.Send(p, ep.Recv(p), sizeSmall)
		}
	})
	var lat []float64
	var hostNs float64
	env.Spawn("cli", func(p *sim.Proc) {
		ep := cl.Node(0).Connect(p, cl.Node(1), "m")
		t := time.Now()
		for i := 0; i < n; i++ {
			start := p.Now()
			ep.Send(p, i, sizeSmall)
			ep.Recv(p)
			lat = append(lat, float64(p.Now()-start))
		}
		hostNs = float64(time.Since(t).Nanoseconds()) / float64(2*n)
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	out["simnet.msg_host_ns"] = hostNs
	out["simnet.oob_sim_ns.512"] = percentile(lat, 50)
	small, bulk := echoSize(m.seed, sizeSmall), echoSize(m.seed, sizeBulk)
	out["simnet.wire_sim_ns.512"] = wireRTT(small, small)
	out["simnet.wire_sim_ns.128k"] = wireRTT(bulk, bulk)
}

// ---------------------------------------------------------------------------
// verbs: post and poll on a connected QP pair.

// rpcMode is how one RPC drives the layers beneath it: the client's call
// options (protocol, polling) and the server dispatcher's polling. The
// micro-runs of the lower layers copy it, so that a layer's round trip
// minus the one below isolates that layer.
type rpcMode struct {
	opts    engine.CallOpts
	srvBusy bool
}

// verbsRTT ping-pongs WRITE_WITH_IMM — the work request the hint-selected
// Direct-WriteIMM plan posts — between two QPs, each side polling as mode
// says, and returns the median round trip on the DES clock and the host
// cost per post→completion.
func verbsRTT(reqSize, respSize int, mode rpcMode, n int) (simP50, hostNs float64) {
	env, cl := pair()
	type side struct {
		qp   *verbs.QP
		mr   *verbs.MR
		recv *verbs.CQ
	}
	big := reqSize
	if respSize > big {
		big = respSize
	}
	mk := func(nd *simnet.Node) side {
		d := verbs.OpenDevice(nd, nil)
		s := side{recv: d.CreateCQ()}
		s.qp = d.CreateQP(d.CreateCQ(), s.recv)
		s.mr = d.AllocPD().RegisterMRNoCost(2 * big)
		return s
	}
	a, b := mk(cl.Node(0)), mk(cl.Node(1))
	if err := a.qp.Connect(b.qp); err != nil {
		panic(err)
	}
	if err := b.qp.Connect(a.qp); err != nil {
		panic(err)
	}
	// Each side writes from the low half of its region into the high half
	// of the peer's; the immediate consumes a zero-length RECV.
	xfer := func(p *sim.Proc, from, to side, size int) {
		from.qp.PostSend(p, &verbs.SendWR{
			Op: verbs.OpWriteImm, SGE: verbs.SGE{MR: from.mr, Len: size},
			Remote: to.mr.RKey(), RemoteOff: big, Imm: 1, Unsignaled: true,
		})
	}
	await := func(p *sim.Proc, s side, busy bool) {
		s.qp.PostRecv(verbs.RecvWR{SGE: verbs.SGE{MR: s.mr}})
		s.recv.Poll(p, busy)
	}
	env.Spawn("pong", func(p *sim.Proc) {
		for {
			await(p, b, mode.srvBusy)
			xfer(p, b, a, respSize)
		}
	})
	var lat []float64
	env.Spawn("ping", func(p *sim.Proc) {
		t := time.Now()
		for i := 0; i < n; i++ {
			start := p.Now()
			xfer(p, a, b, reqSize)
			await(p, a, mode.opts.Busy)
			lat = append(lat, float64(p.Now()-start))
		}
		hostNs = float64(time.Since(t).Nanoseconds()) / float64(2*n)
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	return percentile(lat, 50), hostNs
}

// ---------------------------------------------------------------------------
// engine: Conn.Call against a handler that costs nothing.

type callCost struct {
	simP50, hostNs, allocs float64
}

// engineCall times n unloaded calls of reqSize bytes answered with
// respSize bytes under mode.
func engineCall(reqSize, respSize int, mode rpcMode, n int) callCost {
	opts := mode.opts
	env, cl := pair()
	big := reqSize
	if respSize > big {
		big = respSize
	}
	ecfg := sizedEngineConfig(big, true)
	srvEng, cliEng := engine.New(cl.Node(1), ecfg), engine.New(cl.Node(0), ecfg)
	resp := make([]byte, respSize)
	srv := srvEng.Serve("m", func(p *sim.Proc, fn uint32, req []byte) []byte { return resp })
	srv.Busy, srv.NUMABind = mode.srvBusy, true
	var c callCost
	env.Spawn("cli", func(p *sim.Proc) {
		conn := cliEng.Dial(p, cl.Node(1), "m")
		conn.SetNUMABound(true)
		req := make([]byte, reqSize)
		call := func() {
			if _, err := conn.Call(p, 1, req, opts); err != nil {
				panic(fmt.Sprintf("bench: engine micro-run %v/%d: %v", opts.Proto, reqSize, err))
			}
		}
		for i := 0; i < 3; i++ {
			call()
		}
		var lat []float64
		c.hostNs, c.allocs = hostLoop(n, func() {
			start := p.Now()
			call()
			lat = append(lat, float64(p.Now()-start))
		})
		c.simP50 = percentile(lat, 50)
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	return c
}

// ---------------------------------------------------------------------------
// trdma + generated stub: Echo through the hint-selected plan.

// sizeTap records the framed request and reply sizes a stub puts on the
// transport.
type sizeTap struct {
	trdma.Transport
	req, resp int
}

func (t *sizeTap) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	out, err := t.Transport.Invoke(p, fn, request, oneway)
	t.req, t.resp = len(request), len(out)
	return out, err
}

type stubCost struct {
	callCost
	mode           rpcMode // the plan the hints selected, both sides
	planHostNs     float64 // cached Plan(fn) lookup
	reqLen, resLen int     // framed sizes on the transport
}

// stubEcho times n unloaded Echo calls of size bytes through the
// generated client, with the hint table echo_small/echo_bulk use for the
// nominal size at conc clients, and a handler that costs nothing.
func stubEcho(nominal, size, conc, n int) stubCost {
	env, cl := pair()
	ecfg := sizedEngineConfig(nominal, true)
	srvEng, cliEng := engine.New(cl.Node(1), ecfg), engine.New(cl.Node(0), ecfg)
	sh := echoHints(conc, nominal)
	srv := trdma.NewServer(srvEng, sh, atbgen.NewATBenchProcessor(&echoHandler{node: cl.Node(1), zero: true}))
	var c stubCost
	c.mode.srvBusy = srv.EngineServer().Busy
	env.Spawn("cli", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(1), sh, nil)
		tap := &sizeTap{Transport: tr}
		stub := atbgen.NewATBenchClient(tap)
		payload := make([]byte, size)
		call := func() {
			if _, err := stub.Echo(p, payload); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 3; i++ {
			call()
		}
		var lat []float64
		c.hostNs, c.allocs = hostLoop(n, func() {
			start := p.Now()
			call()
			lat = append(lat, float64(p.Now()-start))
		})
		c.simP50 = percentile(lat, 50)
		c.mode.opts = tr.Plan("Echo")
		c.planHostNs, _ = hostLoop(10*n, func() { tr.Plan("Echo") })
		c.reqLen, c.resLen = tap.req, tap.resp
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	return c
}

// protoShort names the four protocols the per-layer metrics single out.
var protoShort = []struct {
	name  string
	proto engine.Protocol
}{
	{"eager", engine.EagerSendRecv}, {"direct_write_imm", engine.DirectWriteIMM},
	{"write_rndv", engine.WriteRNDV}, {"rfp", engine.RFP},
}

// stack walks the RPC stack bottom-up at both payload sizes: fabric,
// verbs, engine (the protocol the echo workloads' plan selects), trdma +
// stub. Each layer's self time is its unloaded round trip minus the layer
// below, so the five parts (with the handler) add up to the stub call.
func (m *micro) stack() {
	out := m.out
	for _, nominal := range []int{sizeSmall, sizeBulk} {
		sz := sizeNames[nominal]
		n, conc := m.n(10_000), 8
		if nominal == sizeBulk {
			n, conc = m.n(2_000), 4
		}
		size := echoSize(m.seed, nominal) // what the echo workloads send under this seed
		wire := wireRTT(size, size)
		stub := stubEcho(nominal, size, conc, n)
		if stub.mode.opts.Proto != engine.DirectWriteIMM {
			panic(fmt.Sprintf("bench: the echo plan is %v; the verbs micro-run models Direct-WriteIMM", stub.mode.opts.Proto))
		}
		vSim, vHost := verbsRTT(size, size, stub.mode, n)
		eng := engineCall(size, size, stub.mode, n)

		out["verbs.self_sim_ns."+sz] = vSim - wire
		out["engine.self_sim_ns."+sz] = eng.simP50 - vSim
		out["engine.call_host_ns."+sz] = eng.hostNs
		if nominal == sizeSmall {
			out["verbs.post_poll_host_ns"] = vHost
			out["engine.call_allocs.512"] = eng.allocs
			out["trdma.self_sim_ns.512"] = stub.simP50 - eng.simP50
			out["trdma.self_host_ns.512"] = stub.hostNs - eng.hostNs
			out["trdma.plan_host_ns"] = stub.planHostNs
		}
		for _, ps := range protoShort {
			c := eng
			if ps.proto != stub.mode.opts.Proto {
				c = engineCall(size, size, rpcMode{engine.CallOpts{Proto: ps.proto, Busy: true}, true}, 50)
			}
			out["engine.call_sim_ns."+ps.name+"."+sz] = c.simP50
		}
	}
}

// ---------------------------------------------------------------------------
// hints: hierarchy flattening and plan selection, uncached.

func (m *micro) hints() {
	out := m.out
	sh := hatkv.FunctionHints()
	out["hints.resolve_host_ns"], _ = hostLoop(m.n(20_000), func() {
		r := sh.Resolve("Get", hints.SideClient)
		engine.SelectPlan(r, 28, r.PayloadSize, engine.DefaultRndvThreshold)
	})
}

// ---------------------------------------------------------------------------
// thrift: struct codec on the MultiPut argument shape.

func (m *micro) thrift() {
	out, n := m.out, m.n(5_000)
	pairs := make([]*kvgen.KVPair, 10)
	for i := range pairs {
		pairs[i] = &kvgen.KVPair{Key: ycsb.Key(i), Value: make([]byte, kvValueLen)}
	}
	protos := []struct {
		name string
		mk   func(thrift.TTransport) thrift.TProtocol
	}{
		{"binary", func(t thrift.TTransport) thrift.TProtocol { return thrift.NewTBinaryProtocol(t) }},
		{"compact", func(t thrift.TTransport) thrift.TProtocol { return thrift.NewTCompactProtocol(t) }},
	}
	for _, pr := range protos {
		var wire []byte
		encNs, encAllocs := hostLoop(n, func() {
			buf := thrift.NewTMemoryBuffer()
			w := pr.mk(buf)
			for _, kv := range pairs {
				if err := kv.Write(w); err != nil {
					panic(err)
				}
			}
			wire = buf.Bytes()
		})
		decNs, decAllocs := hostLoop(n, func() {
			r := pr.mk(thrift.NewTMemoryBufferWith(wire))
			for range pairs {
				var kv kvgen.KVPair
				if err := kv.Read(r); err != nil {
					panic(err)
				}
			}
		})
		out["thrift.enc_host_ns."+pr.name] = encNs
		out["thrift.dec_host_ns."+pr.name] = decNs
		if pr.name == "binary" { // the protocol the generated stubs use
			out["thrift.enc_allocs"] = encAllocs
			out["thrift.dec_allocs"] = decAllocs
			out["thrift.wire_bytes"] = float64(len(wire))
		}
	}
}

// ---------------------------------------------------------------------------
// lmdb and hatkv: the store under the KV and cluster workloads.

func preloadEnv(env *lmdb.Env) {
	txn, err := env.BeginWrite()
	if err != nil {
		panic(err)
	}
	val := make([]byte, kvValueLen)
	for k := 0; k < kvRecords; k++ {
		if err := txn.Put([]byte(ycsb.Key(k)), kvValue(val, k, preloadWriter, 0)); err != nil {
			panic(err)
		}
	}
	if err := txn.Commit(); err != nil {
		panic(err)
	}
}

func (m *micro) lmdb() {
	out := m.out
	env, err := lmdb.Open(lmdb.Options{Sync: lmdb.SyncFull})
	if err != nil {
		panic(err)
	}
	preloadEnv(env)
	keys := make([][]byte, kvRecords)
	for k := range keys {
		keys[k] = []byte(ycsb.Key(k))
	}
	i := 0
	out["lmdb.get_host_ns"], _ = hostLoop(m.n(100_000), func() {
		txn, err := env.BeginRead()
		if err != nil {
			panic(err)
		}
		if _, err := txn.Get(keys[i%kvRecords]); err != nil {
			panic(err)
		}
		txn.Abort()
		i += 7919
	})
	val := make([]byte, kvValueLen)
	out["lmdb.put_commit_host_ns"], out["lmdb.put_allocs"] = hostLoop(m.n(10_000), func() {
		txn, err := env.BeginWrite()
		if err != nil {
			panic(err)
		}
		if err := txn.Put(keys[i%kvRecords], val); err != nil {
			panic(err)
		}
		if err := txn.Commit(); err != nil {
			panic(err)
		}
		i += 7919
	})
}

// hatkv times a direct Store call inside a process — the server's
// own share of a KV request, with no RPC around it.
func (m *micro) hatkv() {
	out := m.out
	env, cl := pair()
	store, err := hatkv.NewStore(cl.Node(0), nil, nil) // SyncFull, as kv_write and the cluster run it
	if err != nil {
		panic(err)
	}
	preloadEnv(store.Env())
	env.Spawn("kv", func(p *sim.Proc) {
		var get, put []float64
		val := make([]byte, kvValueLen)
		for k := 0; k < 200; k++ {
			start := p.Now()
			if _, err := store.Get(p, ycsb.Key(k)); err != nil {
				panic(err)
			}
			mid := p.Now()
			if err := store.Put(p, ycsb.Key(k), val); err != nil {
				panic(err)
			}
			get = append(get, float64(mid-start))
			put = append(put, float64(p.Now()-mid))
		}
		out["hatkv.get_sim_ns"] = percentile(get, 50)
		out["hatkv.put_sim_ns"] = percentile(put, 50)
	})
	env.Run()
	env.Shutdown()
}

// ---------------------------------------------------------------------------
// cluster: replication and RPC shares of a put, and the shard-map codec.

// clusterPutP50 is the median unloaded small-put latency at replication
// factor rf: the cluster_rf3 driver's fabric, one client, puts only.
func clusterPutP50(rf int) float64 {
	w := &workload{name: "cluster_micro", primary: "Put", clients: 1,
		setupNs: 8_000_000, warmNs: 1_000_000, windowNs: 15_000_000}
	w.build = func(s *scn) {
		cf := newClusterFabric(s, rf)
		c := cluster.NewClient(cf.cliEng, cf.roster, cf.cfg)
		val := make([]byte, clusterSmallLen)
		put := func(p *sim.Proc, key string) {
			start := p.Now()
			if err := c.Put(p, key, val); err != nil {
				s.record("Put", true, start, p.Now(), 0, opFailed, err.Error())
				return
			}
			s.record("Put", true, start, p.Now(), len(val), opOK, "")
		}
		s.spawn(0, func(p *sim.Proc) {
			for _, k := range cf.probeKeys("m") {
				if k != "" {
					put(p, k)
				}
			}
		}, func(p *sim.Proc) {
			for i := 0; p.Now() < s.end; i++ {
				put(p, fmt.Sprintf("m-k%04d", i))
			}
		})
	}
	r := runRepeat(w, 1, 1, nil, nil)
	if r.failed > 0 {
		panic("bench: cluster micro-run: " + r.firstErr)
	}
	return r.sim["sim_lat_p50_ns"]
}

func (m *micro) cluster() {
	out := m.out
	rf1, rf3 := clusterPutP50(1), clusterPutP50(3)
	out["cluster.repl_sim_ns"] = rf3 - rf1
	out["cluster.rpc_self_sim_ns"] = rf1 - out["hatkv.put_sim_ns"]
	sm := cluster.NewShardMap(1, []int{0, 1, 2, 3, 4}, 8, 3)
	out["cluster.shardmap_codec_host_ns"], _ = hostLoop(m.n(20_000), func() {
		if _, err := cluster.DecodeShardMap(sm.Encode()); err != nil {
			panic(err)
		}
	})
}

// ---------------------------------------------------------------------------
// ipoib, node, obs: guard rails.

func (m *micro) ipoib() {
	out := m.out
	env, cl := pair()
	ln := ipoib.Listen(cl.Node(1), "m", nil)
	env.Spawn("srv", func(p *sim.Proc) {
		c := ln.Accept(p)
		for {
			c.Send(p, c.Recv(p))
		}
	})
	env.Spawn("cli", func(p *sim.Proc) {
		c := ipoib.Dial(p, cl.Node(0), cl.Node(1), "m", nil)
		payload := make([]byte, sizeSmall)
		var lat []float64
		for i := 0; i < 203; i++ {
			start := p.Now()
			c.Call(p, payload)
			if i >= 3 {
				lat = append(lat, float64(p.Now()-start))
			}
		}
		out["ipoib.echo_sim_ns.512"] = percentile(lat, 50)
		env.Stop()
	})
	env.Run()
	env.Shutdown()
}

// node boots the production node wrapper on a 5-node cluster and
// measures how long after boot the first client put is acknowledged
// (cold sessions included), and what rendering the metrics exposition
// costs the host.
func (m *micro) node() {
	out := m.out
	env := sim.NewEnv(1)
	ncfg := simnet.DefaultConfig()
	ncfg.Nodes = clusterServers + 1
	cl := simnet.NewCluster(env, ncfg)
	cfg := node.DefaultConfig()
	var roster []*simnet.Node
	for i := 0; i < clusterServers; i++ {
		roster = append(roster, cl.Node(i))
	}
	reg := obs.NewRegistry()
	var nodes []*node.HatNode
	for i := range roster {
		h, err := node.New(roster[i], roster, i, cfg, reg)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, h)
	}
	cliEng := engine.New(cl.Node(clusterServers), engine.DefaultConfig())
	env.Spawn("cli", func(p *sim.Proc) {
		c := cluster.NewClient(cliEng, roster, cfg.ClusterConfig())
		if err := c.Put(p, "boot", []byte("ready")); err != nil {
			panic(err)
		}
		out["node.boot_ready_sim_ns"] = float64(p.Now())
		env.Stop()
	})
	env.Run()
	out["node.exposition_host_ns"], _ = hostLoop(m.n(2_000), func() { nodes[0].Exposition() })
	env.Shutdown()
}

// echoVariants reruns echo_small at half length four ways: as is,
// on one P, traced, and with one client. The ratios say what the Go
// scheduler's cross-P handoffs and the obs layer cost the host; the
// difference in median latency is the queueing the 8 clients add.
func (m *micro) echoVariants() {
	out, seed := m.out, m.seed
	base := workloadByName("echo_small")
	scale := 0.5 * m.scale
	cal := newCalibrator()
	defer cal.stop()
	perOp := func(r repeat) float64 { return 1 / median(r.rates) }
	plain := runRepeat(base, seed, scale, nil, cal)
	prev := runtime.GOMAXPROCS(1)
	oneP := runRepeat(base, seed, scale, nil, cal)
	runtime.GOMAXPROCS(prev)
	traced := runRepeat(base, seed, scale, newTracing(), cal)
	solo := *base
	solo.clients = 1
	solo.build = func(s *scn) { buildEcho(s, sizeSmall, 1) }
	one := runRepeat(&solo, seed, scale, nil, nil)

	out["sim.single_p_ratio"] = perOp(plain) / perOp(oneP)
	out["obs.overhead_ratio"] = perOp(traced) / perOp(plain)
	out["engine.queue_sim_ns"] = plain.sim["sim_lat_p50_ns"] - one.sim["sim_lat_p50_ns"]
}

// layerMicroRuns runs every layer micro-run. The results depend on the
// options only, not on the workload, so the suite pays for them once.
func layerMicroRuns(o options) map[string]float64 {
	m := &micro{scale: o.scale, seed: o.seed, out: map[string]float64{}}
	m.sim()
	m.simnet()
	m.stack()
	m.hints()
	m.thrift()
	m.lmdb()
	m.hatkv()
	m.cluster()
	m.ipoib()
	m.node()
	m.echoVariants()
	return m.out
}

// ---------------------------------------------------------------------------
// The traced pass.

// runTraced runs one traced repeat of the workload at a quarter length,
// merges in the layer micro-runs, and writes the chrome://tracing file.
// End-to-end metrics never come from here.
func runTraced(w *workload, o options, micro map[string]float64) (*workloadResult, error) {
	tr := newTracing()
	rep := runRepeat(w, o.seed, o.scale*tracedScale, tr, nil)
	vals := rep.layer
	for k, v := range micro {
		vals[k] = v
	}

	res := &workloadResult{
		Workload: w.name, Seed: o.seed, Repeats: 1,
		Attempted: rep.attempt, Failed: rep.failed, Refused: rep.refused,
		Samples: rep.samples, TailQ: rep.tailQ, SimDigest: simDigest(rep.sim),
		FirstError: rep.firstErr, PerLayer: map[string]metricValue{},
	}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	if err := finite(res.PerLayer); err != nil {
		return res, err
	}
	var extra []string
	for k := range vals {
		if _, ok := res.PerLayer[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("traced pass produced metrics BENCHMARK.json does not name: %v", extra)
	}
	for _, name := range []string{"cluster.promotions", "cluster.stale_retries", "cluster.refreshes"} {
		if v := vals[name]; v != 0 {
			fmt.Printf("warning: %s = %g on a fault-free run: wasted work\n", name, v)
		}
	}
	path := filepath.Join(o.outDir, "trace."+w.name+".json")
	if err := writeTrace(path, tr.trc); err != nil {
		return res, err
	}
	fmt.Printf("wrote %s (%d events, sim-time; open in chrome://tracing or ui.perfetto.dev)\n", path, tr.trc.Len())
	return res, nil
}

func writeTrace(path string, trc *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
