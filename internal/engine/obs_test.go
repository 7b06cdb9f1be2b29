package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// TestReleaseRndvCapsFreeList exercises the pool cap directly: releasing
// more buffers than DefaultRndvPoolCap must keep the free list at the cap and
// hand back the pinned bytes of the dropped overflow.
func TestReleaseRndvCapsFreeList(t *testing.T) {
	env, srvEng, _ := testCluster(40)
	env.Spawn("driver", func(p *sim.Proc) {
		const extra = 5
		var bufs []*verbs.MR
		for i := 0; i < DefaultRndvPoolCap+extra; i++ {
			bufs = append(bufs, srvEng.acquireRndv(p, 10_000))
		}
		cls := sizeClass(10_000)
		peak := srvEng.PinnedBytes()
		if want := int64((DefaultRndvPoolCap + extra) * cls); peak != want {
			t.Errorf("pinned at peak = %d, want %d", peak, want)
		}
		for _, b := range bufs {
			srvEng.releaseRndv(b)
		}
		if n := len(srvEng.rndvFree[cls]); n != DefaultRndvPoolCap {
			t.Errorf("free list holds %d buffers, want cap %d", n, DefaultRndvPoolCap)
		}
		if got, want := srvEng.PinnedBytes(), peak-int64(extra*cls); got != want {
			t.Errorf("pinned after release = %d, want %d (overflow unpinned)", got, want)
		}
		env.Stop()
	})
	env.Run()
}

// TestRndvPoolPlateausMixedSizes is the workload form of the pool-growth
// fix: a client cycling through many rendezvous size classes must drive
// pinned memory to a plateau, not monotonic growth.
func TestRndvPoolPlateausMixedSizes(t *testing.T) {
	env, srvEng, cliEng := testCluster(41)
	srvEng.Serve("svc", echoHandler)
	sizes := []int{8 << 10, 24 << 10, 60 << 10, 130 << 10, 300 << 10}
	var afterWarm, afterMore int64
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		do := func(cycles int) {
			for i := 0; i < cycles; i++ {
				for _, n := range sizes {
					c.Call(p, 1, make([]byte, n), CallOpts{Proto: WriteRNDV, RespProto: DirectWriteIMM, Busy: true})
				}
			}
		}
		do(3)
		afterWarm = srvEng.PinnedBytes() + cliEng.PinnedBytes()
		do(10)
		afterMore = srvEng.PinnedBytes() + cliEng.PinnedBytes()
		env.Stop()
	})
	env.Run()
	if afterWarm == 0 {
		t.Fatal("no pinned memory recorded")
	}
	if afterMore != afterWarm {
		t.Fatalf("pinned memory grew under a steady mixed-size workload: %d → %d", afterWarm, afterMore)
	}
}

// TestCloseReleasesPinnedBytes verifies the teardown path: after closing
// both engines, pinned bytes — also observed through the obs gauge —
// return to the pre-connection baseline (zero).
func TestCloseReleasesPinnedBytes(t *testing.T) {
	env, srvEng, cliEng := testCluster(42)
	r := obs.NewRegistry()
	srvEng.SetObs(r)
	cliEng.SetObs(r)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		// Mix of eager and rendezvous so both conn buffers and the pool
		// hold pinned memory at shutdown.
		c.Call(p, 1, make([]byte, 100), CallOpts{Proto: EagerSendRecv, Busy: true})
		c.Call(p, 1, make([]byte, 100_000), CallOpts{Proto: WriteRNDV, RespProto: DirectWriteIMM, Busy: true})
		env.Stop()
	})
	env.Run()
	if srvEng.PinnedBytes() == 0 || cliEng.PinnedBytes() == 0 {
		t.Fatal("expected pinned memory while connections are open")
	}
	srvEng.Close()
	cliEng.Close()
	if got := srvEng.PinnedBytes(); got != 0 {
		t.Fatalf("server pinned bytes after Close = %d, want 0", got)
	}
	if got := cliEng.PinnedBytes(); got != 0 {
		t.Fatalf("client pinned bytes after Close = %d, want 0", got)
	}
	for _, node := range []int{0, 1} {
		g, ok := r.GaugeValue(fmt.Sprintf("node%d.engine.pinned_bytes", node))
		if !ok {
			t.Fatalf("pinned-bytes gauge for node %d not registered", node)
		}
		if g != 0 {
			t.Fatalf("node %d pinned-bytes gauge after Close = %v, want 0", node, g)
		}
	}
	// Idempotent.
	srvEng.Close()
	cliEng.Close()
}

// TestOnewayEveryProtocol sends a fire-and-forget request on each
// protocol, then a normal call (which also pumps any trailing control
// traffic, e.g. the Read-RNDV FIN). The server must execute the handler
// for both, respond only to the second, and leave no per-seq control
// state behind.
func TestOnewayEveryProtocol(t *testing.T) {
	for _, proto := range AllProtocols {
		for _, size := range []int{64, 100_000} {
			name := fmt.Sprintf("%s/size=%d", proto, size)
			t.Run(name, func(t *testing.T) {
				env, srvEng, cliEng := testCluster(43)
				observe(srvEng, cliEng)
				var handled int
				srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
					handled++
					return echoHandler(p, fn, req)
				})
				var conn *Conn
				env.Spawn("client", func(p *sim.Proc) {
					c := cliEng.Dial(p, srvEng.Node(), "svc")
					conn = c
					resp, err := c.Call(p, 7, make([]byte, size), CallOpts{Proto: proto, Oneway: true, Busy: true})
					if err != nil {
						t.Errorf("oneway call: %v", err)
					}
					if resp != nil {
						t.Errorf("oneway call returned %d response bytes", len(resp))
					}
					// Let the oneway finish server-side (for Read-RNDV the
					// server still has to READ the payload and FIN) so the
					// follow-up call's CQ pump consumes its control traffic.
					p.Sleep(5_000_000)
					out, err := c.Call(p, 8, []byte("ping"), CallOpts{Proto: EagerSendRecv, Busy: true})
					if err != nil || string(out) != "ECHOping" {
						t.Errorf("follow-up call: resp=%q err=%v", out, err)
					}
					p.Sleep(100_000) // let server-side accounting settle
					env.Stop()
				})
				env.Run()
				if handled != 2 {
					t.Fatalf("handler ran %d times, want 2", handled)
				}
				if served := ctr(srvEng, "engine.served."); served != 2 {
					t.Fatalf("served = %d, want 2 (oneway must count exactly once)", served)
				}
				if calls, oneways := ctr(cliEng, "engine.calls."), ctr(cliEng, "engine.oneways"); calls != 2 || oneways != 1 {
					t.Fatalf("client counted calls=%d oneways=%d, want 2 and 1", calls, oneways)
				}
				// No per-seq residue on either endpoint.
				conns := append([]*Conn{conn}, srv.Conns()...)
				for _, c := range conns {
					side := "client"
					if c.server {
						side = "server"
					}
					if n := len(c.rndvIn) + len(c.rndvOut); n != 0 {
						t.Errorf("%s conn leaks %d rendezvous buffers", side, n)
					}
					if n := len(c.shared.rndv); n != 0 {
						t.Errorf("%s conn leaves %d shared-table entries", side, n)
					}
					if n := len(c.ctsReady) + len(c.frags) + len(c.pendingReads); n != 0 {
						t.Errorf("%s conn leaks control state (cts=%d frags=%d reads=%d)",
							side, len(c.ctsReady), len(c.frags), len(c.pendingReads))
					}
					if n := c.respQueue.Len(); n != 0 {
						t.Errorf("%s conn has %d stray queued arrivals", side, n)
					}
				}
			})
		}
	}
}

// TestObsOffAllocs is the cost gate of "off is free" (obs package doc,
// constraint 1): with no registry attached a warmed 64 B busy call
// allocates what the engine's own bookkeeping does and nothing for
// observability. The bars are the measured values; one span built for a
// nil tracer adds at least two.
func TestObsOffAllocs(t *testing.T) {
	bars := [...]float64{3, 5, 5, 7, 9, 3, 12, 10, 5, 2, 3, 0} // by AllProtocols
	for i, proto := range AllProtocols {
		if got := callAllocs(t, proto, 64); got > bars[i] {
			t.Errorf("%s: %v allocs per call with obs off, want ≤ %v", proto, got, bars[i])
		}
	}
}

// TestObsDoesNotMoveTheClock runs one scenario over every protocol, small
// and fragmented or multi-packet, with no registry, with a registry, and with a
// registry and a tracer: observing must change neither a response nor the
// virtual time the run ends at.
func TestObsDoesNotMoveTheClock(t *testing.T) {
	run := func(reg *obs.Registry) (end sim.Time, out []byte) {
		env, srvEng, cliEng := testCluster(46)
		srvEng.SetObs(reg)
		cliEng.SetObs(reg)
		srvEng.Serve("svc", echoHandler)
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for i, proto := range AllProtocols {
				for _, size := range []int{64, 40_000} {
					resp, err := c.Call(p, uint32(i), pattern(size), CallOpts{Proto: proto, Busy: i%2 == 0})
					if err != nil {
						t.Fatalf("%s, %d bytes: %v", proto, size, err)
					}
					out = append(out, resp...)
				}
			}
			end = p.Now()
			env.Stop()
		})
		env.Run()
		return end, out
	}
	traced := obs.NewRegistry()
	traced.SetTracer(obs.NewTracer())
	offEnd, offOut := run(nil)
	for _, reg := range []*obs.Registry{obs.NewRegistry(), traced} {
		if end, out := run(reg); end != offEnd || !bytes.Equal(out, offOut) {
			t.Errorf("tracer %v: run ended at %d with %d response bytes, unobserved at %d with %d",
				reg.Tracer() != nil, end, len(out), offEnd, len(offOut))
		}
	}
	if traced.Tracer().Len() == 0 || traced.Counter("engine.calls."+RFP.String()).Value() != 2 {
		t.Error("the traced arm did not record the run")
	}
}

// runObservedWorkload drives a small multi-protocol workload with a
// registry+tracer attached and returns the exposition
// plus the trace JSON.
func runObservedWorkload(t *testing.T, seed int64) (string, []byte, *obs.Registry) {
	t.Helper()
	env, srvEng, cliEng := testCluster(seed)
	r := obs.NewRegistry()
	r.SetTracer(obs.NewTracer())
	srvEng.SetObs(r)
	cliEng.SetObs(r)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		c.Call(p, 1, make([]byte, 512), CallOpts{Proto: EagerSendRecv, Busy: true})
		c.Call(p, 2, make([]byte, 100_000), CallOpts{Proto: WriteRNDV, RespProto: DirectWriteIMM, Busy: true})
		c.Call(p, 3, make([]byte, 100_000), CallOpts{Proto: ReadRNDV, RespProto: DirectWriteIMM, Busy: true})
		c.Call(p, 4, []byte("q"), CallOpts{Proto: RFP, Busy: true})
		c.Call(p, 5, make([]byte, 9000), CallOpts{Proto: EagerSendRecv, Oneway: true, Busy: true})
		c.Call(p, 6, []byte("ping"), CallOpts{Proto: EagerSendRecv, Busy: true})
		env.Stop()
	})
	env.Run()
	var buf bytes.Buffer
	if err := r.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return r.Exposition(), buf.Bytes(), r
}

// TestObsCountersPerProtocol checks the per-protocol counter matrix the
// registry accumulates for a known workload.
func TestObsCountersPerProtocol(t *testing.T) {
	_, trace, r := runObservedWorkload(t, 44)
	wantCalls := map[Protocol]int64{
		EagerSendRecv: 3, // incl. the oneway
		WriteRNDV:     1,
		ReadRNDV:      1,
		RFP:           1,
	}
	for proto, want := range wantCalls {
		if got := r.Counter("engine.calls." + proto.String()).Value(); got != want {
			t.Errorf("engine.calls.%s = %d, want %d", proto, got, want)
		}
		if got := r.Counter("engine.served." + proto.String()).Value(); got != want {
			t.Errorf("engine.served.%s = %d, want %d", proto, got, want)
		}
	}
	if got := r.Counter("engine.oneways").Value(); got != 1 {
		t.Errorf("engine.oneways = %d, want 1", got)
	}
	if got := r.Counter("engine.eager_frags").Value(); got == 0 {
		t.Error("9000-byte eager oneway produced no fragment counts")
	}
	// The 100 000-byte Write-RNDV request and the two 100 004-byte
	// Direct-WriteIMM responses are one work request each, however many
	// packets carry them.
	if got := r.Counter("verbs.tx.WRITE_WITH_IMM").Value(); got != 3 {
		t.Errorf("verbs.tx.WRITE_WITH_IMM = %d, want 3", got)
	}
	if h := r.Histogram("engine.cts_wait_ns"); h.Sample().N() != 1 {
		t.Errorf("cts_wait observations = %d, want 1 (one Write-RNDV)", h.Sample().N())
	}
	// The trace must be valid JSON with the expected span names present.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{
		"call." + EagerSendRecv.String(),
		"call." + WriteRNDV.String(),
		"oneway." + EagerSendRecv.String(),
		"serve." + EagerSendRecv.String(),
		"cts_wait",
		"register",
		"wr.READ",
	} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
}

// TestObsOutputDeterministic runs the identical traced workload twice:
// the exposition and the trace JSON must be byte-identical.
func TestObsOutputDeterministic(t *testing.T) {
	render1, trace1, _ := runObservedWorkload(t, 45)
	render2, trace2, _ := runObservedWorkload(t, 45)
	if render1 != render2 {
		t.Fatalf("expositions differ across identical runs:\n--- run1\n%s\n--- run2\n%s", render1, render2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("trace JSON differs across identical runs")
	}
	if len(trace1) == 0 || render1 == "" {
		t.Fatal("observed workload produced empty output")
	}
}
