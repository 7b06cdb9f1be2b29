package trdma_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	hybridgen "hatrpc/examples/hybrid/gen"
	echogen "hatrpc/examples/quickstart/gen"
	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

// echoImpl implements the generated Echo handler.
type echoImpl struct {
	pings, notifies int
	events          []string // what Notify was told, in order
}

func (e *echoImpl) Ping(p *sim.Proc, msg string) (string, error) {
	e.pings++
	return "pong:" + msg, nil
}

func (e *echoImpl) Reverse(p *sim.Proc, msg string) (string, error) {
	b := []byte(msg)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b), nil
}

func (e *echoImpl) Notify(p *sim.Proc, event string) error {
	e.notifies++
	e.events = append(e.events, event)
	return nil
}

func newCluster(seed int64) (*sim.Env, *simnet.Cluster) {
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.DefaultConfig())
	return env, cl
}

func TestGeneratedEchoOverRdma(t *testing.T) {
	env, cl := newCluster(1)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	impl := &echoImpl{}
	trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(impl))

	var pong, rev string
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), echogen.EchoHints, nil)
		c := echogen.NewEchoClient(tr)
		var err error
		pong, err = c.Ping(p, "hello")
		if err != nil {
			t.Error(err)
		}
		rev, err = c.Reverse(p, "drawkcab")
		if err != nil {
			t.Error(err)
		}
		if err := c.Notify(p, "fire-and-forget"); err != nil {
			t.Error(err)
		}
		env.Stop()
	})
	env.Run()
	if pong != "pong:hello" {
		t.Errorf("Ping = %q", pong)
	}
	if rev != "backward" {
		t.Errorf("Reverse = %q", rev)
	}
	if impl.pings != 1 || impl.notifies != 1 {
		t.Errorf("handler counts: pings=%d notifies=%d", impl.pings, impl.notifies)
	}
}

// TestOnewaysThenACallEveryProtocol: two oneways through the generated
// stub and a call right behind them, on every protocol under both
// pollings. Each handler runs once: a oneway waits for its empty reply,
// so the next request cannot land over one the server has not read, and
// what a lost packet takes is resent.
func TestOnewaysThenACallEveryProtocol(t *testing.T) {
	for _, proto := range engine.AllProtocols {
		for _, busy := range []bool{true, false} {
			env, cl := newCluster(5)
			srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
			cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
			impl := &echoImpl{}
			// The hints ask for a busy dispatcher; the polling under test
			// is both ends'.
			trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(impl)).EngineServer().Busy = busy
			policy := func(string, int) engine.CallOpts { return engine.CallOpts{Proto: proto, Busy: busy} }
			env.Spawn("client", func(p *sim.Proc) {
				c := echogen.NewEchoClient(trdma.Dial(p, cliEng, cl.Node(0), echogen.EchoHints, &trdma.DialOptions{Policy: policy}))
				for _, ev := range []string{"first", "second"} {
					if err := c.Notify(p, ev); err != nil {
						t.Errorf("%s/busy=%v: Notify(%s): %v", proto, busy, ev, err)
					}
				}
				if pong, err := c.Ping(p, "x"); err != nil || pong != "pong:x" {
					t.Errorf("%s/busy=%v: Ping = %q, %v", proto, busy, pong, err)
				}
				env.Stop()
			})
			env.Run()
			if got := fmt.Sprint(impl.events, impl.pings); got != "[first second] 1" {
				t.Errorf("%s/busy=%v: Notify ran for %v and Ping %d times, want each once", proto, busy, impl.events, impl.pings)
			}
		}
	}
}

func TestGeneratedEchoOverVanillaTCP(t *testing.T) {
	env, cl := newCluster(2)
	impl := &echoImpl{}
	trdma.ServeTCP(cl.Node(0), "Echo", echogen.NewEchoProcessor(impl))
	var pong string
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.DialTCP(p, cl.Node(1), cl.Node(0), "Echo")
		c := echogen.NewEchoClient(tr)
		var err error
		pong, err = c.Ping(p, "ipoib")
		if err != nil {
			t.Error(err)
		}
		env.Stop()
	})
	env.Run()
	if pong != "pong:ipoib" {
		t.Errorf("Ping over TCP = %q", pong)
	}
}

func TestRdmaFasterThanIPoIBBaseline(t *testing.T) {
	// The headline claim: HatRPC (hint-planned RDMA) must beat vanilla
	// Thrift over IPoIB for the same generated service.
	run := func(rdma bool) sim.Time {
		env, cl := newCluster(3)
		impl := &echoImpl{}
		var useEng *engine.Engine
		if rdma {
			srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
			useEng = engine.New(cl.Node(1), engine.DefaultConfig())
			trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(impl))
		} else {
			trdma.ServeTCP(cl.Node(0), "Echo", echogen.NewEchoProcessor(impl))
		}
		var elapsed sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			var tr trdma.Transport
			if rdma {
				tr = trdma.Dial(p, useEng, cl.Node(0), echogen.EchoHints, nil)
			} else {
				tr = trdma.DialTCP(p, cl.Node(1), cl.Node(0), "Echo")
			}
			c := echogen.NewEchoClient(tr)
			c.Ping(p, "warm")
			start := p.Now()
			for i := 0; i < 50; i++ {
				c.Ping(p, "x")
			}
			elapsed = p.Now() - start
			env.Stop()
		})
		env.Run()
		return elapsed
	}
	rdma, tcp := run(true), run(false)
	if rdma >= tcp {
		t.Fatalf("HatRPC (%d) not faster than Thrift/IPoIB (%d)", rdma, tcp)
	}
	speedup := float64(tcp) / float64(rdma)
	if speedup < 2 {
		t.Errorf("speedup only %.2fx; expected well above 2x for small echo", speedup)
	}
	t.Logf("echo latency speedup over IPoIB: %.2fx", speedup)
}

func TestHybridTransportRouting(t *testing.T) {
	env, cl := newCluster(4)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	impl := &telemetryImpl{}
	trdma.NewServer(srvEng, hybridgen.TelemetryHints, hybridgen.NewTelemetryProcessor(impl))

	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), hybridgen.TelemetryHints, nil)
		c := hybridgen.NewTelemetryClient(tr)
		cfg, err := c.GetConfig(p, "interval") // rides TCP
		if err != nil || cfg != "interval=10s" {
			t.Errorf("GetConfig = %q, %v", cfg, err)
		}
		if err := c.PushSamples(p, make([]byte, 32768)); err != nil { // rides RDMA
			t.Error(err)
		}
		w, err := c.PullWindow(p, 0, 100)
		if err != nil || len(w) != 65536 {
			t.Errorf("PullWindow = %d bytes, %v", len(w), err)
		}
		env.Stop()
	})
	env.Run()
	if impl.pushes != 1 {
		t.Errorf("pushes = %d", impl.pushes)
	}
}

type telemetryImpl struct{ pushes int }

func (x *telemetryImpl) GetConfig(p *sim.Proc, key string) (string, error) {
	return key + "=10s", nil
}
func (x *telemetryImpl) ReportStatus(p *sim.Proc, status string) error { return nil }
func (x *telemetryImpl) PushSamples(p *sim.Proc, samples []byte) error {
	x.pushes++
	return nil
}
func (x *telemetryImpl) PullWindow(p *sim.Proc, fromTs, toTs int64) ([]byte, error) {
	return make([]byte, 65536), nil
}

func TestUnknownMethodReturnsApplicationException(t *testing.T) {
	env, cl := newCluster(5)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(&echoImpl{}))
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), echogen.EchoHints, nil)
		if _, err := tr.Invoke(p, "NoSuchFn", []byte("junk"), false); err == nil {
			t.Error("unknown function accepted by transport")
		}
		env.Stop()
	})
	env.Run()
}

func TestHintPlansMatchFig6(t *testing.T) {
	env, cl := newCluster(6)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(&echoImpl{}))
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), echogen.EchoHints, nil)
		// Echo service hints: perf_goal=latency, concurrency=1 →
		// Direct-WriteIMM with busy polling.
		pl := tr.Plan("Ping")
		if pl.Proto != engine.DirectWriteIMM || !pl.Busy {
			t.Errorf("Ping plan = %+v, want Direct-WriteIMM busy", pl)
		}
		env.Stop()
	})
	env.Run()
}

// TestDialPolicy: a dial-time policy replaces the hint plans and is asked on
// every call, not once per function — AR-gRPC's size switch sends the same
// function eagerly below the threshold and by Read-RNDV above it.
func TestDialPolicy(t *testing.T) {
	env, cl := newCluster(7)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	reg := obs.NewRegistry()
	cliEng.SetObs(reg)
	trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(&echoImpl{}))
	var asked []string
	policy := func(fn string, reqSize int) engine.CallOpts {
		asked = append(asked, fn)
		if reqSize > 4096 {
			return engine.CallOpts{Proto: engine.ReadRNDV}
		}
		return engine.CallOpts{Proto: engine.EagerSendRecv, Busy: true}
	}
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cl.Node(0), echogen.EchoHints, &trdma.DialOptions{Policy: policy})
		c := echogen.NewEchoClient(tr)
		for _, msg := range []string{"small", strings.Repeat("x", 8192), "small-again"} {
			if pong, err := c.Ping(p, msg); err != nil || pong != "pong:"+msg {
				t.Errorf("policy-planned ping(%d B) = %d B, %v", len(msg), len(pong), err)
			}
		}
		env.Stop()
	})
	env.Run()
	if fmt.Sprint(asked) != "[Ping Ping Ping]" {
		t.Errorf("policy consulted for %v, want once per call", asked)
	}
	eager := reg.Counter("engine.calls." + engine.EagerSendRecv.String()).Value()
	rndv := reg.Counter("engine.calls." + engine.ReadRNDV.String()).Value()
	if eager != 2 || rndv != 1 {
		t.Errorf("calls went eager %d / Read-RNDV %d, want 2 / 1 (the hinted plan is Direct-WriteIMM)", eager, rndv)
	}
}

func TestManyClientsGeneratedService(t *testing.T) {
	env, cl := newCluster(8)
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	impl := &echoImpl{}
	trdma.NewServer(srvEng, echogen.EchoHints, echogen.NewEchoProcessor(impl))
	engs := make([]*engine.Engine, 4)
	for i := range engs {
		engs[i] = engine.New(cl.Node(1+i%4), engine.DefaultConfig())
	}
	const N = 12
	done := 0
	for i := 0; i < N; i++ {
		i := i
		env.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			tr := trdma.Dial(p, engs[i%4], cl.Node(0), echogen.EchoHints, nil)
			c := echogen.NewEchoClient(tr)
			for j := 0; j < 8; j++ {
				msg := fmt.Sprintf("c%d-%d", i, j)
				got, err := c.Ping(p, msg)
				if err != nil || !strings.HasSuffix(got, msg) {
					t.Errorf("client %d: %q %v", i, got, err)
					return
				}
			}
			done++
		})
	}
	env.Run()
	if done != N {
		t.Fatalf("only %d/%d clients finished", done, N)
	}
	if impl.pings != N*8 {
		t.Fatalf("server saw %d pings, want %d", impl.pings, N*8)
	}
}

func TestHintsResolutionInGeneratedTable(t *testing.T) {
	sh := echogen.EchoHints
	r := sh.Resolve("Ping", hints.SideClient)
	if r.Goal != hints.GoalLatency || r.Concurrency != 1 {
		t.Errorf("resolved = %+v", r)
	}
	if len(sh.FnIDs) != 3 {
		t.Errorf("FnIDs = %v", sh.FnIDs)
	}
	if !sh.Oneway["Notify"] {
		t.Error("Notify should be oneway")
	}
}

// bulkEcho is an ATBench handler that returns its payload.
type bulkEcho struct{}

func (bulkEcho) Echo(p *sim.Proc, b []byte) ([]byte, error)     { return b, nil }
func (bulkEcho) LatCall(p *sim.Proc, b []byte) ([]byte, error)  { return b, nil }
func (bulkEcho) TputCall(p *sim.Proc, b []byte) ([]byte, error) { return b, nil }

// TestBulkEchoHandOffIsCopyLean drives a 128 KB echo through the generated
// stub and pins the thrift↔engine hand-off: the request is serialized into
// the client's staging region and the response into the server's, the
// handler's argument is a window onto the request buffer, and the NIC
// model recycles its payload snapshots — so of the six message-sized
// buffers a call used to allocate, one is left: the result the caller
// keeps.
func TestBulkEchoHandOffIsCopyLean(t *testing.T) {
	const size = 128<<10 - 100
	env, cl := newCluster(5)
	ecfg := engine.DefaultConfig()
	srvEng, cliEng := engine.New(cl.Node(0), ecfg), engine.New(cl.Node(1), ecfg)
	trdma.NewServer(srvEng, atbgen.ATBenchHints, atbgen.NewATBenchProcessor(bulkEcho{}))
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var perCall uint64
	env.Spawn("client", func(p *sim.Proc) {
		c := atbgen.NewATBenchClient(trdma.Dial(p, cliEng, cl.Node(0), atbgen.ATBenchHints, nil))
		call := func() {
			got, err := c.Echo(p, payload)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("echo returned %d bytes, err %v", len(got), err)
			}
		}
		for i := 0; i < 4; i++ {
			call()
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		perCall = (after.TotalAlloc - before.TotalAlloc) / n
		env.Stop()
	})
	env.Run()
	if perCall > size+size/2 {
		t.Fatalf("%d bytes allocated per %d-byte echo: more than one message-sized buffer", perCall, size)
	}
}

// BenchmarkStubBulkEcho reports host ns/op, B/op and allocs/op of a warmed
// 128 KB Echo through the generated client and processor, under the hints
// that plan Direct-WriteIMM for it: the server serves the request from its
// direct region and the client decodes the reply where it landed
// (engine.Conn.Invoke), which a raw engine.Conn.Call, whose caller owns
// the reply, does not show.
func BenchmarkStubBulkEcho(b *testing.B) {
	const size = 128 << 10
	sh := *atbgen.ATBenchHints
	sh.Service = hints.MakeSet(map[hints.Key]string{
		hints.KeyPerfGoal:    "throughput",
		hints.KeyConcurrency: "4",
		hints.KeyPayloadSize: fmt.Sprint(size),
	}, nil, nil)
	env, cl := newCluster(5)
	ecfg := engine.DefaultConfig()
	srvEng, cliEng := engine.New(cl.Node(0), ecfg), engine.New(cl.Node(1), ecfg)
	trdma.NewServer(srvEng, &sh, atbgen.NewATBenchProcessor(bulkEcho{}))
	payload := make([]byte, size)
	var plan engine.Protocol
	var failed error
	b.SetBytes(2 * size)
	b.ReportAllocs()
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		tr := trdma.Dial(p, cliEng, cl.Node(0), &sh, nil)
		plan = tr.Plan("Echo").Proto
		c := atbgen.NewATBenchClient(tr)
		call := func() bool {
			got, err := c.Echo(p, payload)
			if err == nil && len(got) != size {
				err = fmt.Errorf("echo returned %d bytes", len(got))
			}
			failed = err
			return err == nil
		}
		for i := 0; i < 4; i++ {
			if !call() {
				return
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N && call(); i++ {
		}
		b.StopTimer()
	})
	env.Run()
	if failed != nil || plan != engine.DirectWriteIMM {
		b.Fatalf("Echo planned %s, err %v", plan, failed)
	}
}
