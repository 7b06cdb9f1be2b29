package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/verbs"
)

// pattern is the payload every bulk test ships: a pure function of its
// length, so either end can check bytes it never saw being made.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + n)
	}
	return b
}

// bulkFns: fnSink checks the request against pattern and answers one
// byte; fnSource answers pattern of the size the request names.
const (
	fnSink   uint32 = 1
	fnSource uint32 = 2
)

// bulkHandler serves fnSink and fnSource, counting executions and
// reporting any request that is not the pattern of its own length — which
// is what a message delivered with a hole in it looks like.
func bulkHandler(t *testing.T, runs *int) Handler {
	return func(p *sim.Proc, fn uint32, req []byte) []byte {
		*runs++
		if fn == fnSource {
			return pattern(int(binary.LittleEndian.Uint32(req)))
		}
		if !bytes.Equal(req, pattern(len(req))) {
			t.Errorf("handler got a %d-byte request that is not the pattern it was sent as", len(req))
		}
		return []byte{1}
	}
}

// sourceReq is the fnSource request for an n-byte response.
func sourceReq(n int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(n))
}

// writeCarried reports whether proto moves a large payload in the given
// direction with a WRITE work request; the rest move it as eager
// fragments or READs.
func writeCarried(proto Protocol, response bool) bool {
	switch proto {
	case DirectWriteSend, ChainedWriteSend, DirectWriteIMM, WriteRNDV, HybridEagerRNDV:
		return true
	case RFP, HERD:
		return !response
	}
	return false
}

// TestBulkBoundaries walks every protocol across the sizes where the
// packet count of a message changes — one full packet, the first two-
// and three-packet messages, a long one, the largest message — in both
// directions, with finite RECV depth and credits on: the bytes arrive
// intact, a message spends one peer RECV however many packets carry it,
// and a WRITE-carried message is one work request behind as many
// doorbells as the reference message, whatever its length.
func TestBulkBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModelRNR = true
	cfg.FlowCredits = 16
	// Sizes count the engine's header: n+hdrSize bytes go on the wire.
	const mtu = verbs.PathMTU
	sizes := []int{
		mtu - hdrSize, mtu - hdrSize + 1, 2*mtu - hdrSize, 2*mtu - hdrSize + 1,
		32*mtu - hdrSize, cfg.MaxMsgSize,
	}
	// The reference message: past the rendezvous threshold (so the hybrid
	// has resolved to Write-RNDV), two packets long.
	const ref = DefaultRndvThreshold + 1
	for _, proto := range AllProtocols {
		for _, response := range []bool{false, true} {
			dir := "request"
			if response {
				dir = "response"
			}
			t.Run(fmt.Sprintf("%s/%s", proto, dir), func(t *testing.T) {
				env, srvEng, cliEng := flowCluster(5, cfg)
				srvReg, cliReg := srvEng.obs, cliEng.obs
				runs := 0
				srvEng.Serve("svc", bulkHandler(t, &runs))
				// sender ships the bulk payload, receiver spends the RECVs.
				sender, senderReg, receiverReg := cliEng, cliReg, srvReg
				if response {
					sender, senderReg, receiverReg = srvEng, srvReg, cliReg
				}
				type cost struct{ writes, recvs, doorbells int64 }
				measure := func(p *sim.Proc, c *Conn, n int) cost {
					snap := func() cost {
						// Credit updates of their own (one small WRITE each)
						// come and go with the repost backlog, not with the
						// message: leave them out.
						credit := senderReg.Counter("engine.credit_updates").Value()
						return cost{
							writes:    senderReg.Counter("verbs.tx.WRITE").Value() + senderReg.Counter("verbs.tx.WRITE_WITH_IMM").Value() - credit,
							recvs:     receiverReg.Counter("verbs.cqe.RECV").Value(),
							doorbells: ctr(sender, "verbs.doorbells") - credit,
						}
					}
					before := snap()
					opts := CallOpts{Proto: proto, Busy: true}
					if response {
						got, err := c.Call(p, fnSource, sourceReq(n), opts)
						if err != nil || !bytes.Equal(got, pattern(n)) {
							t.Fatalf("size %d: %d-byte response is not the pattern (err %v)", n, len(got), err)
						}
					} else if got, err := c.Call(p, fnSink, pattern(n), opts); err != nil || len(got) != 1 {
						t.Fatalf("size %d: %q, %v", n, got, err)
					}
					p.Sleep(20_000) // trailing control traffic (FIN, credit updates)
					after := snap()
					return cost{after.writes - before.writes, after.recvs - before.recvs, after.doorbells - before.doorbells}
				}
				env.Spawn("client", func(p *sim.Proc) {
					c := cliEng.Dial(p, srvEng.Node(), "svc")
					measure(p, c, ref) // warm pools and credits
					base := measure(p, c, ref)
					for _, n := range sizes {
						got := measure(p, c, n)
						if !writeCarried(proto, response) || proto == HybridEagerRNDV && n <= DefaultRndvThreshold {
							continue
						}
						if got.writes != base.writes {
							t.Errorf("size %d: %d WRITE work requests, the reference message %d", n, got.writes, base.writes)
						}
						if got.recvs != base.recvs {
							t.Errorf("size %d: message spent %d peer RECVs, the reference message %d", n, got.recvs, base.recvs)
						}
						// RFP polls for its response with READs, as many as the
						// server takes time; every other sender rings as often
						// for a long message as for a short one.
						if proto != RFP && got.doorbells != base.doorbells {
							t.Errorf("size %d: %d doorbells, the reference message %d", n, got.doorbells, base.doorbells)
						}
					}
					env.Stop()
				})
				env.Run()
				if want := 2 + len(sizes); runs != want {
					t.Errorf("handler ran %d times for %d calls", runs, want)
				}
				if n := ctr(srvEng, "verbs.rnr_naks") + ctr(cliEng, "verbs.rnr_naks"); n != 0 {
					t.Errorf("%d RNR NAKs: a message spent RECVs it had no credit for", n)
				}
				assertNoLeaks(t, srvEng, cliEng)
			})
		}
	}
}

// tornCluster is a two-node fabric whose calls carry a deadline, so a
// lost packet is recovered by retransmission.
func tornCluster() (*sim.Env, *simnet.Cluster, *Engine, *Engine) {
	env := sim.NewEnv(9)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	cfg := DefaultConfig()
	cfg.CallDeadline = 5_000_000
	return env, cl, New(cl.Node(0), cfg), New(cl.Node(1), cfg)
}

// TestTornTrainNeverDelivered drops, in turn, every single packet of a
// five-packet message — request and response, Direct-WriteIMM and the
// rendezvous WRITE behind its RTS — and checks RC ordering's promise: the
// receiver never sees the message with a hole in it (the packets behind
// the lost one are discarded, the IMM with them), the call completes by
// retransmission with the right bytes after exactly one execution, and no
// rendezvous buffer stays behind.
func TestTornTrainNeverDelivered(t *testing.T) {
	const size = 5*verbs.PathMTU - hdrSize
	for _, proto := range []Protocol{DirectWriteIMM, WriteRNDV} {
		for _, response := range []bool{false, true} {
			// Packets on the bulk direction's link, counted from the call:
			// the rendezvous sends its RTS first, and a server answering
			// by rendezvous has granted the request's before that.
			packets := 5
			if proto == WriteRNDV {
				packets++
				if response {
					packets++
				}
			}
			for k := 1; k <= packets; k++ {
				t.Run(fmt.Sprintf("%s/response=%v/drop=%d", proto, response, k), func(t *testing.T) {
					env, cl, srvEng, cliEng := tornCluster()
					reg := obs.NewRegistry()
					cliEng.SetObs(reg)
					runs := 0
					srvEng.Serve("svc", bulkHandler(t, &runs))
					env.Spawn("client", func(p *sim.Proc) {
						c := cliEng.Dial(p, srvEng.Node(), "svc")
						opts := CallOpts{Proto: proto, Busy: true}
						if _, err := c.Call(p, fnSink, pattern(64), opts); err != nil {
							t.Fatal(err)
						}
						from, to := cliEng.Node().ID(), srvEng.Node().ID()
						if response {
							from, to = to, from
						}
						cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: from, To: to, N: k}}})
						if response {
							got, err := c.Call(p, fnSource, sourceReq(size), opts)
							if err != nil || !bytes.Equal(got, pattern(size)) {
								t.Errorf("%d-byte response is not the pattern (err %v)", len(got), err)
							}
						} else if got, err := c.Call(p, fnSink, pattern(size), opts); err != nil || len(got) != 1 {
							t.Errorf("%q, %v", got, err)
						}
						p.Sleep(500_000)
						env.Stop()
					})
					env.Run()
					if runs != 2 {
						t.Errorf("handler ran %d times for 2 calls", runs)
					}
					if reg.Counter("engine.retries").Value() == 0 {
						t.Error("the call completed without a retransmission: the scripted loss hit nothing")
					}
					for _, e := range []*Engine{srvEng, cliEng} {
						for _, c := range e.Conns() {
							if n := len(c.rndvIn) + len(c.rndvOut) + len(c.orphanIn) + len(c.orphanOut); n != 0 {
								t.Errorf("node %d: %d rendezvous buffers still held", e.Node().ID(), n)
							}
						}
					}
					assertNoLeaks(t, srvEng, cliEng)
				})
			}
		}
	}
}

// TestOrphanNotifyNotDelivered: when the WRITE of a Direct-Write-Send is
// lost, the notify SEND behind it is discarded with it. Delivered, it
// would announce whatever the direct buffer held before — the previous
// request, which the server would take for a retransmission and answer
// from its dedup cache.
func TestOrphanNotifyNotDelivered(t *testing.T) {
	for _, proto := range []Protocol{DirectWriteSend, ChainedWriteSend} {
		t.Run(proto.String(), func(t *testing.T) {
			env, cl, srvEng, cliEng := tornCluster()
			reg := obs.NewRegistry()
			srvEng.SetObs(reg)
			runs := 0
			srvEng.Serve("svc", bulkHandler(t, &runs))
			env.Spawn("client", func(p *sim.Proc) {
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				opts := CallOpts{Proto: proto, Busy: true}
				if _, err := c.Call(p, fnSink, pattern(64), opts); err != nil {
					t.Fatal(err)
				}
				cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{{From: cliEng.Node().ID(), To: srvEng.Node().ID(), N: 1}}})
				if got, err := c.Call(p, fnSink, pattern(2048), opts); err != nil || len(got) != 1 {
					t.Errorf("%q, %v", got, err)
				}
				p.Sleep(500_000)
				env.Stop()
			})
			env.Run()
			if runs != 2 {
				t.Errorf("handler ran %d times for 2 calls", runs)
			}
			if n := reg.Counter("engine.dup_requests").Value(); n != 0 {
				t.Errorf("%d duplicate requests at the server: the orphan notify delivered the stale direct buffer", n)
			}
			assertNoLeaks(t, srvEng, cliEng)
		})
	}
}

// TestStagedPayloads: a request serialized into Conn.Stage and a response
// serialized into ResponseStage travel like any other on every protocol —
// including the eager ones, whose fragments are staged over the very area
// the payload lies in, and across a retransmission. Only an eager leg
// moves a staged payload to an arena buffer first: a HERD request is one
// WRITE and a Pilaf or FaRM response is published, both from where it
// lies. The copy of a request is seen in the client's arena: a fresh
// buffer of the request's length put on top of its class is what the copy
// takes (the copy the NIC keeps of a fragment still on the wire when the
// next is staged over it is of another class), so the arena lacks it
// while the handler runs exactly when the request was copied.
func TestStagedPayloads(t *testing.T) {
	const size = 40_000 // ten eager fragments, ten packets
	for _, proto := range AllProtocols {
		reqCopied := proto == EagerSendRecv || proto == Pilaf || proto == FaRM
		respCopied := proto == EagerSendRecv || proto == HERD
		for _, lossy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lossy=%v", proto, lossy), func(t *testing.T) {
				env, cl, srvEng, cliEng := tornCluster()
				var marker []byte // the buffer a copy of the request takes
				copied := false   // the handler found marker out of the arena
				srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
					if !bytes.Equal(req, pattern(len(req))) {
						t.Errorf("server got a %d-byte request that is not the pattern", len(req))
					}
					copied = !cliEng.dev.Holds(marker)
					out := ResponseStage(p)
					if out == nil {
						t.Fatal("no response stage on a dispatcher process")
					}
					return append(out, pattern(len(req)+1)...)
				})
				env.Spawn("client", func(p *sim.Proc) {
					c := cliEng.Dial(p, srvEng.Node(), "svc")
					if lossy {
						// Lose the second packet each way: a data packet of the
						// request, then one of the response.
						cl.InstallFaults(simnet.FaultConfig{DropNth: []simnet.NthDrop{
							{From: cliEng.Node().ID(), To: srvEng.Node().ID(), N: 2},
							{From: srvEng.Node().ID(), To: cliEng.Node().ID(), N: 2},
						}})
					}
					for i := 0; i < 3; i++ {
						marker = make([]byte, size)
						cliEng.dev.Put(marker)
						req := append(c.Stage(), pattern(size)...)
						got, err := c.Call(p, 1, req, CallOpts{Proto: proto, Busy: true})
						if err != nil || !bytes.Equal(got, pattern(size+1)) {
							t.Fatalf("call %d: %d-byte response is not the pattern (err %v)", i, len(got), err)
						}
						if !lossy && copied != reqCopied {
							t.Errorf("call %d: staged request copied to the arena: %v, want %v", i, copied, reqCopied)
						}
						sc := srv.Conns()[0]
						if copied := !sc.staged(sc.dedup.resp); !lossy && copied != respCopied {
							t.Errorf("call %d: staged response copied to the arena: %v, want %v", i, copied, respCopied)
						}
					}
					p.Sleep(500_000)
					env.Stop()
				})
				env.Run()
				assertNoLeaks(t, srvEng, cliEng)
			})
		}
	}
}

// TestStageClaimsWhatTheNICStillReads: a oneway call returns as soon as
// its request is posted, so the next Stage lends the staging region while
// the NIC has not yet read that request from it. Lending claims the area:
// the request in flight takes a copy (exactly one) and the server gets
// the bytes it was sent with, not the next message's.
func TestStageClaimsWhatTheNICStillReads(t *testing.T) {
	env, srvEng, cliEng := testCluster(3)
	observe(cliEng)
	var got [][]byte
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		got = append(got, bytes.Clone(req))
		return nil
	})
	first, second := pattern(1000), pattern(1001)
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		opts := CallOpts{Proto: EagerSendRecv, Oneway: true, Busy: true}
		if _, err := c.Call(p, 1, append(c.Stage(), first...), opts); err != nil {
			t.Fatal(err)
		}
		before := ctr(cliEng, "verbs.payload_copies")
		next := append(c.Stage(), second...)
		if n := ctr(cliEng, "verbs.payload_copies") - before; n != 1 {
			t.Errorf("lending the staging region made %d NIC copies, want 1", n)
		}
		if _, err := c.Call(p, 1, next, opts); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100_000)
	})
	env.Run()
	if len(got) != 2 || !bytes.Equal(got[0], first) || !bytes.Equal(got[1], second) {
		t.Fatalf("server got %d requests; the first matches what was sent: %v", len(got), len(got) > 0 && bytes.Equal(got[0], first))
	}
}

// TestStagedResponseDedupPerSession: a response serialized into the
// staging region (ResponseStage) stays there for the dedup cache, so a
// retransmission of the last served request is answered with the original
// bytes and without re-running the handler.
func TestStagedResponseDedupPerSession(t *testing.T) {
	env, _, srvEng, cliEng := tornCluster()
	runs := 0
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		runs++
		return append(ResponseStage(p), bytes.Repeat(req[:1], 9*verbs.PathMTU)...)
	})
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		want := bytes.Repeat([]byte{'a'}, 9*verbs.PathMTU)
		got, err := c.Call(p, 1, []byte{'a'}, CallOpts{Proto: DirectWriteIMM, Busy: true})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("first call: %d bytes, err %v", len(got), err)
		}
		h := hdr{kind: kReq, proto: DirectWriteIMM, respProto: DirectWriteIMM,
			fn: 1, length: 1, seq: c.seq}
		c.sendMessage(p, h, []byte{'a'}, true)
		a := c.nextArrival(p, true)
		if runs != 1 {
			t.Errorf("retransmission re-executed the handler (runs %d, want 1)", runs)
		}
		if !bytes.Equal(a.Payload, want) {
			t.Error("dedup resend of a staged response differs from the original")
		}
		env.Stop()
	})
	env.Run()
}

// callAllocs measures the allocations of one warmed size-byte busy echo
// call by proto (the handler returns its request, the caller recycles the
// reply), with no registry attached.
func callAllocs(t testing.TB, proto Protocol, size int) float64 {
	env, srvEng, cliEng := testCluster(21)
	srvEng.Serve("svc", benchEchoHandler)
	req := pattern(size)
	var allocs float64
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		call := func() {
			resp, err := c.Call(p, 1, req, CallOpts{Proto: proto, Busy: true})
			if err != nil {
				t.Fatal(err)
			}
			c.Recycle(resp)
		}
		for i := 0; i < 4; i++ {
			call()
		}
		allocs = testing.AllocsPerRun(50, call)
		env.Stop()
	})
	env.Run()
	return allocs
}

// TestBulkCallSteadyStateAllocs: a warmed 128 KB Direct-WriteIMM call
// allocates only its result — nothing, once the caller recycles it — and
// so does a 1 MB one: nothing is allocated per packet or per byte.
func TestBulkCallSteadyStateAllocs(t *testing.T) {
	bulk := callAllocs(t, DirectWriteIMM, 128<<10)
	huge := callAllocs(t, DirectWriteIMM, 1<<20)
	if bulk != 0 || huge != 0 {
		t.Errorf("allocations per recycled call: %v at 128 KB, %v at 1 MB, want 0", bulk, huge)
	}
}

// BenchmarkBulkCall reports host ns/op, B/op and allocs/op of a 128 KB
// echo on the WRITE-carrying protocols.
func BenchmarkBulkCall(b *testing.B) {
	for _, proto := range []Protocol{DirectWriteIMM, ChainedWriteSend, WriteRNDV, RFP} {
		b.Run(proto.String(), func(b *testing.B) {
			b.SetBytes(2 * 128 << 10)
			benchCall(b, 128<<10, CallOpts{Proto: proto, Busy: true})
		})
	}
}
