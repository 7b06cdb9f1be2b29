package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// TestHotpathConfigRoundTrips runs the protocol matrix with sequential
// calls per connection whose responses are handed back to the arena, so
// delivered buffers are recycled and reused across ops on every protocol.
func TestHotpathConfigRoundTrips(t *testing.T) {
	for _, proto := range AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(12)
			srvEng.Serve("svc", echoHandler)
			calls := 0
			env.Spawn("client", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				for i := 0; i < 8; i++ {
					req := []byte(fmt.Sprintf("hot-%s-%02d", proto, i))
					resp, err := c.Call(p, uint32(i), req, CallOpts{Proto: proto, Busy: i%2 == 0})
					if err != nil {
						t.Errorf("call %d: %v", i, err)
						break
					}
					if string(resp) != "ECHO"+string(req) {
						t.Errorf("call %d: got %q", i, resp)
						break
					}
					c.Recycle(resp)
					calls++
				}
				env.Stop()
			})
			env.Run()
			if calls != 8 {
				t.Fatalf("completed %d calls, want 8", calls)
			}
		})
	}
}

// TestPollBudgetDrainsConcurrentBurst pushes a fan-in burst through the
// server's batched pumps: many clients issue calls in the same
// scheduling quantum, so the server pump sees several completions per
// wakeup and must drain them all through PollN.
func TestPollBudgetDrainsConcurrentBurst(t *testing.T) {
	env, srvEng, cliEng := testCluster(13)
	observe(srvEng)
	srvEng.Serve("svc", echoHandler)
	const N = 12
	done := 0
	for i := 0; i < N; i++ {
		i := i
		env.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for j := 0; j < 4; j++ {
				req := []byte(fmt.Sprintf("c%d-m%d", i, j))
				resp, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv})
				if err != nil || string(resp) != "ECHO"+string(req) {
					t.Errorf("client %d call %d: %q %v", i, j, resp, err)
					return
				}
			}
			done++
			if done == N {
				env.Stop()
			}
		})
	}
	env.Run()
	if done != N {
		t.Fatalf("%d/%d clients finished", done, N)
	}
	if served := ctr(srvEng, "engine.served."); served != N*4 {
		t.Fatalf("server served %d, want %d", served, N*4)
	}
}

// TestDoorbellBatchSegmentedNoOp pins the doorbell-batching scope: a
// segmented single message (payload larger than one slot) posts one
// doorbell per fragment — chaining a whole fragment train would trade the
// staging/transmit overlap for doorbell savings and lose.
func TestDoorbellBatchSegmentedNoOp(t *testing.T) {
	req := make([]byte, 3*4096+123) // three full fragments + a tail
	for i := range req {
		req[i] = byte(i * 13)
	}
	env, srvEng, cliEng := testCluster(14)
	observe(cliEng)
	srvEng.Serve("svc", echoHandler)
	var resp []byte
	var err error
	var doorbells int64
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		before := ctr(cliEng, "verbs.doorbells")
		resp, err = c.Call(p, 9, req, CallOpts{Proto: EagerSendRecv, Busy: true})
		doorbells = ctr(cliEng, "verbs.doorbells") - before
		env.Stop()
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := echoHandler(nil, 9, req); !bytes.Equal(resp, want) {
		t.Fatalf("segmented response corrupt: got %d bytes, want %d", len(resp), len(want))
	}
	if doorbells != 4 {
		t.Fatalf("4-fragment request rang %d doorbells, want one per fragment", doorbells)
	}
}

// TestArenaPayloadsRecycleReuse verifies the node's arena actually
// cycles payloads: after a Recycle it holds the buffer, and a subsequent
// same-shape call draws from it without corrupting the delivered bytes.
func TestArenaPayloadsRecycleReuse(t *testing.T) {
	env, srvEng, cliEng := testCluster(15)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		req := bytes.Repeat([]byte("x"), 100)
		resp1, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil {
			t.Error(err)
			env.Stop()
			return
		}
		saved := append([]byte(nil), resp1...)
		c.Recycle(resp1)
		if !cliEng.dev.Holds(resp1) {
			t.Error("the arena does not hold a recycled response")
		}
		resp2, err := c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, Busy: true})
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(resp2, saved) {
			t.Errorf("reused-buffer response differs: %q vs %q", resp2, saved)
		}
		env.Stop()
	})
	env.Run()
}

// TestOffsetSubsliceResponseSurvivesRecycle: a handler may answer with a
// cut of its request — an offset subslice (req[4:]) or a prefix (req[:8]).
// The dedup cache retains that response, so the request buffer must
// outlive the call: a retransmission of the request is answered with the
// original bytes and without re-running the handler. The retransmission
// here carries a different body under the same seq — the server never
// compares bodies, and had the first request's buffer been recycled this
// same-class body would land in it and show through the cached response.
// Once the connection's next request is served, the entry lets go and the
// first request's buffer is back in the arena.
func TestOffsetSubsliceResponseSurvivesRecycle(t *testing.T) {
	for _, c := range []struct {
		name string
		cut  func([]byte) []byte
	}{
		{"req[4:]", func(b []byte) []byte { return b[4:] }},
		{"req[:8]", func(b []byte) []byte { return b[:8] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, srvEng, cliEng := testCluster(20)
			runs := 0
			var served []byte // the first request's buffer, as the handler saw it
			srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
				if runs++; runs == 1 {
					served = req
				}
				return c.cut(req)
			})
			opts := CallOpts{Proto: EagerSendRecv, RespProto: EagerSendRecv, Busy: true}
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				conn := cliEng.Dial(p, srvEng.Node(), "svc")
				first := bytes.Repeat([]byte("A"), 100)
				resp, err := conn.Call(p, 1, first, opts)
				if err != nil || !bytes.Equal(resp, c.cut(first)) {
					t.Errorf("first call: %q %v", resp, err)
				}
				h := hdr{kind: kReq, proto: EagerSendRecv, respProto: EagerSendRecv,
					fn: 1, length: uint32(len(first)), seq: conn.seq}
				conn.sendMessage(p, h, bytes.Repeat([]byte("B"), 100), true)
				a := conn.nextArrival(p, true)
				if runs != 1 {
					t.Errorf("retransmission re-executed the handler (runs %d, want 1)", runs)
				}
				if !bytes.Equal(a.Payload, c.cut(first)) {
					t.Errorf("dedup resend returned %q, want the original %q", a.Payload, c.cut(first))
				}
				if _, err := conn.Call(p, 1, bytes.Repeat([]byte("C"), 100), opts); err != nil {
					t.Fatal(err)
				}
				if !srvEng.dev.Holds(served) {
					t.Error("the next served request did not return the first one's buffer to the arena")
				}
			})
			env.Run()
		})
	}
}

// TestThreeIndexCutResponseSurvivesRecycle: a response cut from the
// request with its capacity capped (req[0:8:8]) shares no capacity
// element with the request, so no comparison of slices can tell it is cut
// from it. It survives because the dedup entry owns the request buffer
// whatever the response is: a delivery on another connection into the
// same size class, and then a retransmission of the first connection's
// request, find the cached response unchanged.
func TestThreeIndexCutResponseSurvivesRecycle(t *testing.T) {
	env, srvEng, cliEng := testCluster(22)
	runs := 0
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		runs++
		return req[0:8:8]
	})
	opts := CallOpts{Proto: EagerSendRecv, RespProto: EagerSendRecv, Busy: true}
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c1 := cliEng.Dial(p, srvEng.Node(), "svc")
		c2 := cliEng.Dial(p, srvEng.Node(), "svc")
		first := bytes.Repeat([]byte("A"), 100)
		if resp, err := c1.Call(p, 1, first, opts); err != nil || !bytes.Equal(resp, first[:8]) {
			t.Fatalf("first call: %q %v", resp, err)
		}
		if _, err := c2.Call(p, 1, bytes.Repeat([]byte("C"), 100), opts); err != nil {
			t.Fatal(err)
		}
		h := hdr{kind: kReq, proto: EagerSendRecv, respProto: EagerSendRecv,
			fn: 1, length: uint32(len(first)), seq: c1.seq}
		c1.sendMessage(p, h, bytes.Repeat([]byte("B"), 100), true)
		a := c1.nextArrival(p, true)
		if runs != 2 {
			t.Errorf("handler ran %d times for two requests and a retransmission, want 2", runs)
		}
		if !bytes.Equal(a.Payload, first[:8]) {
			t.Errorf("dedup resend returned %q, want the original %q", a.Payload, first[:8])
		}
	})
	env.Run()
}

// TestEveryDispatchExitRecycles: the dispatcher returns the request
// buffer to the arena on every path, not only when it serves. With one
// handler slot and shed-newest admission, a request arriving while the
// slot is held is shed; with the drain fence up one is fenced; and a
// retransmission of a request already served is answered from the dedup
// entry. Once warm, none of the three rounds allocates anything — on the
// server or, with each reply recycled, on the client. Every round runs
// twice, without a deadline and with one; either way the request is served
// where it lies in the direct region, and each exit must end the window's
// loan, or the next request to land would move the region.
func TestEveryDispatchExitRecycles(t *testing.T) {
	const hold, echo uint32 = 1, 2
	env, srvEng, cliEng := testCluster(23)
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		if fn == hold {
			p.Sleep(50_000)
		}
		return req[:8]
	})
	srv.AdmitLimit, srv.Admit = 1, AdmitShedNewest
	// Direct-WriteIMM delivers each request, a retransmission included,
	// as a payload the dispatcher receives. The rounds read opts when
	// they run; the loop below sets it to each variant in turn.
	variants := []struct {
		name string
		opts CallOpts
	}{
		{"in-place", CallOpts{Proto: DirectWriteIMM, Busy: true}},
		{"deadlined", CallOpts{Proto: DirectWriteIMM, Busy: true, Deadline: 1_000_000}},
	}
	opts := variants[0].opts
	req := pattern(100)
	start, held := sim.NewSignal(env), sim.NewSignal(env)
	env.Spawn("holder", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for {
			start.Wait(p)
			resp, err := c.Call(p, hold, req, opts)
			if err != nil {
				t.Errorf("held call: %v", err)
			}
			c.Recycle(resp)
			held.Fire()
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		expect := func(what string, err, want error) {
			if !errors.Is(err, want) {
				t.Fatalf("%s call: %v, want %v", what, err, want)
			}
		}
		rounds := []struct {
			name string
			run  func()
		}{
			{"shed", func() {
				start.Fire()
				p.Sleep(10_000) // the holder's request is in the handler
				_, err := c.Call(p, echo, req, opts)
				expect("shed", err, ErrOverloaded)
				held.Wait(p)
			}},
			{"drained", func() {
				srv.SetDraining(true)
				_, err := c.Call(p, echo, req, opts)
				expect("fenced", err, ErrDraining)
				srv.SetDraining(false)
			}},
			{"dup", func() {
				resp, err := c.Call(p, echo, req, opts)
				expect("served", err, nil)
				c.Recycle(resp)
				h := hdr{kind: kReq, proto: DirectWriteIMM, respProto: DirectWriteIMM,
					fn: echo, length: uint32(len(req)), seq: c.seq}
				c.sendMessage(p, h, req, true)
				a := c.nextArrival(p, true)
				if a.Kind != kResp || !bytes.Equal(a.Payload, req[:8]) {
					t.Fatalf("dedup resend: kind %d, %q", a.Kind, a.Payload)
				}
				// In either variant the reply is a window onto the client's
				// direct region, not an arena buffer: its loan ends here, as
				// the next call would end a call's.
				c.endLoan(a.Payload)
			}},
		}
		for _, v := range variants {
			opts = v.opts
			for _, r := range rounds {
				for i := 0; i < 4; i++ {
					r.run()
				}
				if n := testing.AllocsPerRun(20, r.run); n != 0 {
					t.Errorf("a warmed %s %s round allocates %v objects, want 0", v.name, r.name, n)
				}
			}
		}
	})
	env.Run()
	if srv.Drained == 0 {
		t.Error("no request was drain-fenced")
	}
}

// TestFetchPaceDisciplines pins the one-sided result-poll pacing table:
// busy spins at the legacy 600 ns pace until the RC retry budget, and
// event paces at the interrupt-wake granularity from the first retry,
// however long it has waited.
func TestFetchPaceDisciplines(t *testing.T) {
	env, srvEng, cliEng := testCluster(18)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		cm := c.eng.dev.CostModel()
		spin := sim.Duration(fetchSpinPaceMult * cm.PollGranularityNs)
		slow := sim.Duration(cm.InterruptWakeNs)
		for _, tc := range []struct {
			busy bool
			spun sim.Duration
			want sim.Duration
		}{
			{true, 0, spin},
			{true, sim.Duration(cm.RetryTimeoutNs) - 1, spin},
			{true, sim.Duration(cm.RetryTimeoutNs), slow},
			{false, 0, slow},
			{false, sim.Duration(cm.RetryTimeoutNs) - 1, slow},
		} {
			if got := c.fetchPace(tc.busy, tc.spun); got != tc.want {
				t.Errorf("fetchPace(busy=%v, spun=%d) = %d, want %d", tc.busy, tc.spun, got, tc.want)
			}
		}
		env.Stop()
	})
	env.Run()
}

// TestHotpathDeterministic runs the same mixed workload (a run of eager calls,
// then every protocol with recycled responses, alternating busy and event
// client waits against a busy server) twice on one seed and requires
// identical virtual end times: arena reuse, batched draining and the busy
// CPU load must not let host state leak into the simulation.
func TestHotpathDeterministic(t *testing.T) {
	run := func() sim.Time {
		env, srvEng, cliEng := testCluster(19)
		srvEng.Serve("svc", echoHandler).Busy = true
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for i := 0; i < 6; i++ {
				req := []byte(fmt.Sprintf("b%d", i))
				if _, err := c.Call(p, 2, req, CallOpts{Proto: EagerSendRecv}); err != nil {
					t.Error(err)
				}
			}
			for i, proto := range AllProtocols {
				req := []byte(fmt.Sprintf("det-%02d", i))
				resp, err := c.Call(p, uint32(i), req, CallOpts{Proto: proto, Busy: i%2 == 0})
				if err != nil || string(resp) != "ECHO"+string(req) {
					t.Errorf("call %d (%s): %q %v", i, proto, resp, err)
					return
				}
				c.Recycle(resp)
			}
			env.Stop()
		})
		env.Run()
		return env.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual end time differs across runs: %d vs %d", a, b)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: allocs/op on the eager-path Call for every protocol.

// benchCall measures b.N round-trip Calls on one connection inside one
// simulation run, with allocation accounting.
func benchCall(b *testing.B, size int, opts CallOpts) {
	env, srvEng, cliEng := testCluster(21)
	srvEng.Serve("svc", benchEchoHandler)
	req := make([]byte, size)
	for i := range req {
		req[i] = byte(i)
	}
	b.ReportAllocs()
	var failed error
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		// Warm connection state and the arena outside the timer.
		for i := 0; i < 3; i++ {
			if resp, err := c.Call(p, 1, req, opts); err != nil {
				failed = err
				env.Stop()
				return
			} else {
				c.Recycle(resp)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Call(p, 1, req, opts)
			if err != nil {
				failed = err
				break
			}
			c.Recycle(resp)
		}
		b.StopTimer()
		env.Stop()
	})
	env.Run()
	if failed != nil {
		b.Fatal(failed)
	}
}

// benchEchoHandler echoes the request slice itself — no per-op handler
// allocation, so the benchmark isolates the engine's own hot path.
func benchEchoHandler(p *sim.Proc, fn uint32, req []byte) []byte { return req }

// BenchmarkEagerPathCall reports ns/op (host) and allocs/op for a small
// round-trip Call on every protocol.
func BenchmarkEagerPathCall(b *testing.B) {
	for _, proto := range AllProtocols {
		b.Run(proto.String(), func(b *testing.B) {
			benchCall(b, 64, CallOpts{Proto: proto, Busy: true})
		})
	}
}

// BenchmarkConnSetup is what one connection costs the host: dial, accept
// and one 512-byte call on a fresh pair of engines. Its B/op is the host
// memory the connection takes on both sides, its registered regions
// included: they hold what the call touched, not their registered size.
// Building the engines and tearing the simulation down are untimed.
func BenchmarkConnSetup(b *testing.B) {
	req := pattern(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, srvEng, cliEng := testCluster(21)
		srvEng.Serve("svc", benchEchoHandler)
		var err error
		env.Spawn("client", func(p *sim.Proc) {
			defer env.Stop()
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			_, err = c.Call(p, 1, req, CallOpts{Proto: EagerSendRecv, Busy: true})
		})
		b.StartTimer()
		env.Run()
		b.StopTimer()
		env.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestFetchRegionsAllocatedOnFirstUse: a server connection's two fetch
// regions, the RFP/HERD request region and the RFP/Pilaf/FaRM response
// region, are registered at the full size, and counted as pinned at it,
// but hold no host memory until a fetch protocol uses them. The response
// region then holds what the server wrote there; a request lands in the
// request region by reference, which takes none.
func TestFetchRegionsAllocatedOnFirstUse(t *testing.T) {
	env, srvEng, cliEng := testCluster(24)
	srv := srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		if _, err := c.Call(p, 1, []byte("eager"), CallOpts{Proto: EagerSendRecv, Busy: true}); err != nil {
			t.Fatal(err)
		}
		sc := srv.Conns()[0]
		fetch := []*verbs.MR{sc.rfpInMR, sc.rfpOutMR}
		for i, mr := range fetch {
			if mr.Allocated() != 0 {
				t.Errorf("fetch region %d holds %d bytes after an eager call, want none", i, mr.Allocated())
			}
		}
		if want := int64(sc.rfpInMR.Len() + sc.rfpOutMR.Len()); sc.pinned < want {
			t.Errorf("server connection pins %d bytes, less than its %d bytes of fetch regions", sc.pinned, want)
		}
		for _, proto := range []Protocol{RFP, Pilaf} {
			if resp, err := c.Call(p, 1, []byte("fetch"), CallOpts{Proto: proto, Busy: true}); err != nil || string(resp) != "ECHOfetch" {
				t.Fatalf("%s call: %q, %v", proto, resp, err)
			}
		}
		if sc.rfpOutMR.Allocated() == 0 {
			t.Error("the response region holds no memory after RFP and Pilaf calls")
		}
	})
	env.Run()
}

// TestRegionMemoryFollowsUse: a connection's registered regions hold the
// host memory its messages touch, not their registered size. After
// warmed 512-byte calls on any protocol, each side's regions hold at most
// 64 KB between them — the eager ring's landings are read where they
// lie, and the staging and direct regions hold one small message — while
// each still pins its full registered length. The same connection then
// round-trips a MaxMsgSize request and reply.
func TestRegionMemoryFollowsUse(t *testing.T) {
	const small, bound = 512, 64 << 10
	for _, proto := range AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(5)
			srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte { return req })
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				opts := CallOpts{Proto: proto, Busy: true}
				req := pattern(small)
				for i := 0; i < 3*cliEng.Config().EagerSlots; i++ {
					resp, err := c.Call(p, 1, req, opts)
					if err != nil || !bytes.Equal(resp, req) {
						t.Fatalf("call %d: %d-byte reply, %v", i, len(resp), err)
					}
					c.Recycle(resp)
				}
				for _, side := range []struct {
					name string
					c    *Conn
				}{{"client", c}, {"server", srv.Conns()[0]}} {
					var held, pinned int
					for _, mr := range side.c.regions() {
						if mr != nil {
							held += mr.Allocated()
							pinned += mr.Len()
						}
					}
					if held > bound {
						t.Errorf("%s regions hold %d bytes of host memory after %d-byte calls, want at most %d", side.name, held, small, bound)
					}
					if int64(pinned) != side.c.pinned {
						t.Errorf("%s connection pins %d bytes, want its regions' registered %d", side.name, side.c.pinned, pinned)
					}
				}
				big := pattern(cliEng.Config().MaxMsgSize)
				if resp, err := c.Call(p, 1, big, opts); err != nil || !bytes.Equal(resp, big) {
					t.Fatalf("%d-byte call: %d-byte reply, %v", len(big), len(resp), err)
				}
			})
			env.Run()
		})
	}
}
