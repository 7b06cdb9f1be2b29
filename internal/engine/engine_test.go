package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// testCluster builds a 2-node cluster with a server engine on node 0
// (echo handler that reverses nothing, appends a marker) and a client
// engine on node 1.
func testCluster(seed int64) (*sim.Env, *Engine, *Engine) {
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: 2, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	srv := New(cl.Node(0), DefaultConfig())
	cli := New(cl.Node(1), DefaultConfig())
	return env, srv, cli
}

// observe attaches a registry of its own to each engine — the engine
// counts nothing a test could read without one — and ctr reads it: one
// counter, or for a name ending in "." the sum of a per-protocol family.
func observe(engs ...*Engine) {
	for _, e := range engs {
		e.SetObs(obs.NewRegistry())
	}
}

func ctr(e *Engine, name string) (n int64) {
	if e.obs == nil {
		panic("ctr: no registry attached (observe)")
	}
	if !strings.HasSuffix(name, ".") {
		return e.obs.Counter(name).Value()
	}
	for i := 0; i < nProtocols; i++ {
		n += e.obs.Counter(name + Protocol(i).String()).Value()
	}
	return n
}

// sendMessage sends a request by hand, as a retransmission would: by the
// request leg of h.proto, waiting forever.
func (c *Conn) sendMessage(p *sim.Proc, h hdr, payload []byte, busy bool) {
	c.send(p, h.proto.row().req, h, payload, busy, 0)
}

// echoHandler returns the request payload with a 4-byte prefix.
func echoHandler(p *sim.Proc, fn uint32, req []byte) []byte {
	out := make([]byte, 4+len(req))
	copy(out, "ECHO")
	copy(out[4:], req)
	return out
}

func TestEveryProtocolRoundTripsEveryPolling(t *testing.T) {
	sizes := []int{0, 1, 64, 4096, 4097, 131072}
	for _, proto := range AllProtocols {
		for _, busy := range []bool{true, false} {
			for _, size := range sizes {
				name := fmt.Sprintf("%s/busy=%v/size=%d", proto, busy, size)
				t.Run(name, func(t *testing.T) {
					env, srvEng, cliEng := testCluster(1)
					srv := srvEng.Serve("svc", echoHandler)
					srv.Busy = busy
					req := make([]byte, size)
					for i := range req {
						req[i] = byte(i * 7)
					}
					var resp []byte
					var err error
					env.Spawn("client", func(p *sim.Proc) {
						c := cliEng.Dial(p, srvEng.Node(), "svc")
						resp, err = c.Call(p, 3, req, CallOpts{Proto: proto, Busy: busy})
						env.Stop()
					})
					env.Run()
					if err != nil {
						t.Fatal(err)
					}
					want := echoHandler(nil, 3, req)
					if !bytes.Equal(resp, want) {
						t.Fatalf("response mismatch: got %d bytes, want %d", len(resp), len(want))
					}
				})
			}
		}
	}
}

func TestSequentialCallsOnOneConn(t *testing.T) {
	env, srvEng, cliEng := testCluster(2)
	srvEng.Serve("svc", echoHandler)
	var got []string
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < 20; i++ {
			req := []byte(fmt.Sprintf("msg-%02d", i))
			proto := AllProtocols[i%len(AllProtocols)]
			resp, err := c.Call(p, uint32(i), req, CallOpts{Proto: proto, Busy: true})
			if err != nil {
				t.Errorf("call %d (%s): %v", i, proto, err)
				break
			}
			got = append(got, string(resp))
		}
		env.Stop()
	})
	env.Run()
	if len(got) != 20 {
		t.Fatalf("completed %d calls, want 20", len(got))
	}
	for i, g := range got {
		want := fmt.Sprintf("ECHOmsg-%02d", i)
		if g != want {
			t.Fatalf("call %d = %q, want %q", i, g, want)
		}
	}
}

func TestMultipleClientsConcurrently(t *testing.T) {
	env, srvEng, cliEng := testCluster(3)
	srvEng.Serve("svc", echoHandler)
	done := 0
	const N = 16
	for i := 0; i < N; i++ {
		i := i
		env.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for j := 0; j < 5; j++ {
				req := []byte(fmt.Sprintf("c%d-m%d", i, j))
				resp, err := c.Call(p, 1, req, CallOpts{Proto: DirectWriteIMM, Busy: false})
				if err != nil || string(resp) != "ECHO"+string(req) {
					t.Errorf("client %d call %d: %q %v", i, j, resp, err)
					return
				}
			}
			done++
		})
	}
	env.Run()
	if done != N {
		t.Fatalf("%d clients finished, want %d", done, N)
	}
}

func TestAsymmetricRequestResponseProtocols(t *testing.T) {
	// Large request via Write-RNDV, small response via Direct-WriteIMM —
	// the HatKV PUT pattern (§4.4).
	env, srvEng, cliEng := testCluster(4)
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		return []byte("OK")
	})
	var resp []byte
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		req := make([]byte, 100_000)
		var err error
		resp, err = c.Call(p, 9, req, CallOpts{Proto: WriteRNDV, RespProto: DirectWriteIMM, Busy: true})
		if err != nil {
			t.Error(err)
		}
		env.Stop()
	})
	env.Run()
	if string(resp) != "OK" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestChainedSavesLatencyOverUnchained(t *testing.T) {
	lat := func(proto Protocol) sim.Time {
		env, srvEng, cliEng := testCluster(5)
		srv := srvEng.Serve("svc", echoHandler)
		srv.Busy = true
		var total sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			c.Call(p, 1, make([]byte, 512), CallOpts{Proto: proto, Busy: true}) // warm
			start := p.Now()
			for i := 0; i < 10; i++ {
				c.Call(p, 1, make([]byte, 512), CallOpts{Proto: proto, Busy: true})
			}
			total = p.Now() - start
			env.Stop()
		})
		env.Run()
		return total
	}
	unchained := lat(DirectWriteSend)
	chained := lat(ChainedWriteSend)
	if chained >= unchained {
		t.Fatalf("chained (%d) not faster than unchained (%d)", chained, unchained)
	}
}

func TestWriteImmFastestSmallMessageLatency(t *testing.T) {
	// Fig. 4 headline: with busy polling, Direct-WriteIMM beats eager,
	// rendezvous and the fetch protocols for small messages.
	lat := func(proto Protocol) sim.Time {
		env, srvEng, cliEng := testCluster(6)
		srv := srvEng.Serve("svc", echoHandler)
		srv.Busy = true
		var total sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			c.Call(p, 1, make([]byte, 64), CallOpts{Proto: proto, Busy: true})
			start := p.Now()
			for i := 0; i < 20; i++ {
				c.Call(p, 1, make([]byte, 64), CallOpts{Proto: proto, Busy: true})
			}
			total = p.Now() - start
			env.Stop()
		})
		env.Run()
		return total
	}
	imm := lat(DirectWriteIMM)
	for _, other := range []Protocol{EagerSendRecv, WriteRNDV, ReadRNDV, Pilaf, FaRM, RFP} {
		if o := lat(other); imm >= o {
			t.Errorf("Direct-WriteIMM (%d) not faster than %s (%d) for 64B", imm, other, o)
		}
	}
}

func TestRndvCheaperThanEagerForLargeMessages(t *testing.T) {
	// Above the threshold the eager double-copy dominates; rendezvous
	// must win for, say, 512 KB.
	lat := func(proto Protocol) sim.Time {
		env, srvEng, cliEng := testCluster(7)
		srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte { return []byte("ok") })
		srv.Busy = true
		var total sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			c.Call(p, 1, make([]byte, 512<<10), CallOpts{Proto: proto, RespProto: DirectWriteIMM, Busy: true})
			start := p.Now()
			for i := 0; i < 5; i++ {
				c.Call(p, 1, make([]byte, 512<<10), CallOpts{Proto: proto, RespProto: DirectWriteIMM, Busy: true})
			}
			total = p.Now() - start
			env.Stop()
		})
		env.Run()
		return total
	}
	if e, w := lat(EagerSendRecv), lat(WriteRNDV); w >= e {
		t.Fatalf("Write-RNDV (%d) not cheaper than eager (%d) at 512KB", w, e)
	}
}

func TestRndvPoolReuse(t *testing.T) {
	env, srvEng, cliEng := testCluster(8)
	observe(srvEng)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < 10; i++ {
			c.Call(p, 1, make([]byte, 100_000), CallOpts{Proto: WriteRNDV, RespProto: DirectWriteIMM, Busy: true})
		}
		env.Stop()
	})
	env.Run()
	// All ten transfers are the same size class: the pool must allocate
	// once and reuse afterwards.
	if ctr(srvEng, "engine.rndv_pool.miss") > 2 {
		t.Fatalf("rendezvous pool allocated %d buffers for 10 same-size calls", ctr(srvEng, "engine.rndv_pool.miss"))
	}
}

func TestRFPRetriesWhenServerSlow(t *testing.T) {
	env, srvEng, cliEng := testCluster(9)
	observe(cliEng)
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		p.Sleep(50_000) // 50µs server-side work
		return []byte("slow")
	})
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		resp, err := c.Call(p, 1, []byte("q"), CallOpts{Proto: RFP, Busy: true})
		if err != nil || string(resp) != "slow" {
			t.Errorf("resp=%q err=%v", resp, err)
		}
		env.Stop()
	})
	env.Run()
	if ctr(cliEng, "engine.read_retries") == 0 {
		t.Fatal("RFP fetch never retried despite slow server")
	}
}

func TestRFPLargeResponseSecondRead(t *testing.T) {
	env, srvEng, cliEng := testCluster(10)
	big := make([]byte, 20_000)
	for i := range big {
		big[i] = byte(i)
	}
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte { return big })
	var resp []byte
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		resp, _ = c.Call(p, 1, []byte("q"), CallOpts{Proto: RFP, Busy: true})
		env.Stop()
	})
	env.Run()
	if !bytes.Equal(resp, big) {
		t.Fatalf("large RFP response corrupted: %d bytes", len(resp))
	}
}

// opNames are the verbs counters TestOpsPerProtocol reads, in the order
// of its ops arrays.
var opNames = [...]string{
	"verbs.tx.SEND", "verbs.tx.WRITE", "verbs.tx.WRITE_WITH_IMM", "verbs.tx.READ",
	"verbs.doorbells", "verbs.cqe.RECV", "verbs.tx.inline",
}

// opsNow reads opNames on e, less the stale polls of a fetch: each one is
// a READ and a doorbell that found no response yet.
func opsNow(e *Engine) (ops [len(opNames)]int64) {
	for i, name := range opNames {
		ops[i] = ctr(e, name)
	}
	stale := ctr(e, "engine.read_retries")
	ops[3] -= stale
	ops[4] -= stale
	return ops
}

// TestOpsPerProtocol counts the verbs operations of one warmed size-byte
// echo on each side, by protocol: WRs sent by opcode, doorbells, RECV
// completions and inline sends (opNames), stale fetch polls left out. A
// fetch READs its probes and then the payload bytes they did not cover:
// RFP's 4 KB probe covers a response up to 4 068 B, Pilaf probes twice
// and FaRM once, 16 B each, and both always READ the payload apart. The
// counts are what each protocol puts on the wire, so they move only with
// a change to a protocol, never with how the engine is written.
//
// copies are the NIC's payload copies on each side (verbs.payload_copies):
// a packet takes one when the host writes its range before it lands. A
// warmed call sends in place, so there are none, but for the two races
// the copy-on-write rule exists for: an eager message longer than a ring
// slot stages each fragment over the last while that one is still on the
// wire, and RFP's server publishes a response while a stale probe's READ
// response is still in flight.
func TestOpsPerProtocol(t *testing.T) {
	type ops = [len(opNames)]int64
	type copies = [2]int64
	cases := []struct {
		proto    Protocol
		size     int
		cli, srv ops
		copies   copies
	}{
		{EagerSendRecv, 64, ops{1, 0, 0, 0, 1, 1, 1}, ops{1, 0, 0, 0, 1, 1, 1}, copies{0, 0}},
		{EagerSendRecv, 8192, ops{2, 0, 0, 0, 2, 2, 0}, ops{2, 0, 0, 0, 2, 2, 0}, copies{1, 1}},
		{EagerSendRecv, 100000, ops{25, 0, 0, 0, 25, 25, 0}, ops{25, 0, 0, 0, 25, 25, 0}, copies{24, 24}},
		{DirectWriteSend, 64, ops{1, 1, 0, 0, 2, 1, 1}, ops{1, 1, 0, 0, 2, 1, 1}, copies{0, 0}},
		{DirectWriteSend, 8192, ops{1, 1, 0, 0, 2, 1, 1}, ops{1, 1, 0, 0, 2, 1, 1}, copies{0, 0}},
		{DirectWriteSend, 100000, ops{1, 1, 0, 0, 2, 1, 1}, ops{1, 1, 0, 0, 2, 1, 1}, copies{0, 0}},
		{ChainedWriteSend, 64, ops{1, 1, 0, 0, 1, 1, 1}, ops{1, 1, 0, 0, 1, 1, 1}, copies{0, 0}},
		{ChainedWriteSend, 8192, ops{1, 1, 0, 0, 1, 1, 1}, ops{1, 1, 0, 0, 1, 1, 1}, copies{0, 0}},
		{ChainedWriteSend, 100000, ops{1, 1, 0, 0, 1, 1, 1}, ops{1, 1, 0, 0, 1, 1, 1}, copies{0, 0}},
		{WriteRNDV, 64, ops{2, 0, 1, 0, 3, 3, 2}, ops{2, 0, 1, 0, 3, 3, 2}, copies{0, 0}},
		{WriteRNDV, 8192, ops{2, 0, 1, 0, 3, 3, 2}, ops{2, 0, 1, 0, 3, 3, 2}, copies{0, 0}},
		{WriteRNDV, 100000, ops{2, 0, 1, 0, 3, 3, 2}, ops{2, 0, 1, 0, 3, 3, 2}, copies{0, 0}},
		{ReadRNDV, 64, ops{2, 0, 0, 1, 3, 2, 2}, ops{2, 0, 0, 1, 3, 2, 2}, copies{0, 0}},
		{ReadRNDV, 8192, ops{2, 0, 0, 1, 3, 2, 2}, ops{2, 0, 0, 1, 3, 2, 2}, copies{0, 0}},
		{ReadRNDV, 100000, ops{2, 0, 0, 1, 3, 2, 2}, ops{2, 0, 0, 1, 3, 2, 2}, copies{0, 0}},
		{DirectWriteIMM, 64, ops{0, 0, 1, 0, 1, 1, 1}, ops{0, 0, 1, 0, 1, 1, 1}, copies{0, 0}},
		{DirectWriteIMM, 8192, ops{0, 0, 1, 0, 1, 1, 0}, ops{0, 0, 1, 0, 1, 1, 0}, copies{0, 0}},
		{DirectWriteIMM, 100000, ops{0, 0, 1, 0, 1, 1, 0}, ops{0, 0, 1, 0, 1, 1, 0}, copies{0, 0}},
		{Pilaf, 64, ops{1, 0, 0, 3, 4, 0, 1}, ops{0, 0, 0, 0, 0, 1, 0}, copies{0, 0}},
		{Pilaf, 8192, ops{2, 0, 0, 3, 5, 0, 0}, ops{0, 0, 0, 0, 0, 2, 0}, copies{1, 0}},
		{Pilaf, 100000, ops{25, 0, 0, 3, 28, 0, 0}, ops{0, 0, 0, 0, 0, 25, 0}, copies{24, 0}},
		{FaRM, 64, ops{1, 0, 0, 2, 3, 0, 1}, ops{0, 0, 0, 0, 0, 1, 0}, copies{0, 0}},
		{FaRM, 8192, ops{2, 0, 0, 2, 4, 0, 0}, ops{0, 0, 0, 0, 0, 2, 0}, copies{1, 0}},
		{FaRM, 100000, ops{25, 0, 0, 2, 27, 0, 0}, ops{0, 0, 0, 0, 0, 25, 0}, copies{24, 0}},
		{RFP, 64, ops{0, 1, 0, 1, 2, 0, 0}, ops{0, 0, 0, 0, 0, 0, 0}, copies{0, 0}},
		{RFP, 8192, ops{0, 1, 0, 2, 3, 0, 0}, ops{0, 0, 0, 0, 0, 0, 0}, copies{0, 1}},
		{RFP, 100000, ops{0, 1, 0, 2, 3, 0, 0}, ops{0, 0, 0, 0, 0, 0, 0}, copies{0, 1}},
		{HERD, 64, ops{0, 1, 0, 0, 1, 1, 0}, ops{1, 0, 0, 0, 1, 0, 1}, copies{0, 0}},
		{HERD, 8192, ops{0, 1, 0, 0, 1, 2, 0}, ops{2, 0, 0, 0, 2, 0, 0}, copies{0, 1}},
		{HERD, 100000, ops{0, 1, 0, 0, 1, 25, 0}, ops{25, 0, 0, 0, 25, 0, 0}, copies{0, 24}},
		{HybridEagerRNDV, 64, ops{1, 0, 0, 0, 1, 1, 1}, ops{1, 0, 0, 0, 1, 1, 1}, copies{0, 0}},
		{HybridEagerRNDV, 8192, ops{2, 0, 1, 0, 3, 3, 2}, ops{2, 0, 1, 0, 3, 3, 2}, copies{0, 0}},
		{HybridEagerRNDV, 100000, ops{2, 0, 1, 0, 3, 3, 2}, ops{2, 0, 1, 0, 3, 3, 2}, copies{0, 0}},
		{HybridEagerRead, 64, ops{1, 0, 0, 0, 1, 1, 1}, ops{1, 0, 0, 0, 1, 1, 1}, copies{0, 0}},
		{HybridEagerRead, 8192, ops{2, 0, 0, 1, 3, 2, 2}, ops{2, 0, 0, 1, 3, 2, 2}, copies{0, 0}},
		{HybridEagerRead, 100000, ops{2, 0, 0, 1, 3, 2, 2}, ops{2, 0, 0, 1, 3, 2, 2}, copies{0, 0}},
	}
	if len(cases) != 3*len(AllProtocols) {
		t.Fatalf("%d cases, want three sizes of each of %d protocols", len(cases), len(AllProtocols))
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.proto, c.size), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(14)
			observe(srvEng, cliEng)
			srvEng.Serve("svc", benchEchoHandler)
			req := pattern(c.size)
			var cli, srv ops
			var cp copies
			copiesNow := func() copies {
				return copies{ctr(cliEng, "verbs.payload_copies"), ctr(srvEng, "verbs.payload_copies")}
			}
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				conn := cliEng.Dial(p, srvEng.Node(), "svc")
				for i := 0; i < 3; i++ { // two calls warm the connection
					if i == 2 {
						cli, srv, cp = opsNow(cliEng), opsNow(srvEng), copiesNow()
					}
					out, err := conn.Call(p, 1, req, CallOpts{Proto: c.proto, Busy: true})
					if err != nil || !bytes.Equal(out, req) {
						t.Fatalf("call %d: %d bytes, %v", i, len(out), err)
					}
				}
				gotCli, gotSrv, gotCp := opsNow(cliEng), opsNow(srvEng), copiesNow()
				for i := range cli {
					cli[i], srv[i] = gotCli[i]-cli[i], gotSrv[i]-srv[i]
				}
				cp = copies{gotCp[0] - cp[0], gotCp[1] - cp[1]}
			})
			env.Run()
			if cli != c.cli || srv != c.srv {
				t.Errorf("ops per call %v: client %v, server %v; want %v, %v", opNames, cli, srv, c.cli, c.srv)
			}
			if cp != c.copies {
				t.Errorf("NIC payload copies per call (client, server) %v, want %v", cp, c.copies)
			}
		})
	}
}

func TestCallTooLargeRejected(t *testing.T) {
	env, srvEng, cliEng := testCluster(11)
	srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		_, err := c.Call(p, 1, make([]byte, DefaultConfig().MaxMsgSize+1), CallOpts{Proto: EagerSendRecv})
		if err == nil {
			t.Error("oversized call accepted")
		}
		env.Stop()
	})
	env.Run()
}

// TestOversizeResponseIsTyped: a handler response over MaxMsgSize fits no
// response channel. On every response protocol the caller gets the typed
// ErrResponseTooLarge, a retransmission of the request gets the refusal
// again without running the handler, and the next call on the connection
// is served.
func TestOversizeResponseIsTyped(t *testing.T) {
	const big, echo uint32 = 1, 2
	for _, proto := range AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			env, srvEng, cliEng := testCluster(13)
			observe(srvEng)
			runs := 0
			srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
				runs++
				if fn == big {
					return make([]byte, srvEng.Config().MaxMsgSize+1)
				}
				return echoHandler(p, fn, req)
			})
			env.Spawn("client", func(p *sim.Proc) {
				defer env.Stop()
				c := cliEng.Dial(p, srvEng.Node(), "svc")
				opts := CallOpts{Proto: proto, Busy: true}
				if _, err := c.Call(p, big, []byte("q"), opts); !errors.Is(err, ErrResponseTooLarge) {
					t.Errorf("oversize response: %v, want ErrResponseTooLarge", err)
				}
				if proto == EagerSendRecv {
					h := hdr{kind: kReq, proto: proto, respProto: proto, fn: big, length: 1, seq: c.seq}
					c.sendMessage(p, h, []byte("q"), true)
					if a := c.nextArrival(p, true); a.Kind != kBig || a.Seq != c.seq {
						t.Errorf("retransmission answered kind %d seq %d, want the kBig refusal at seq %d", a.Kind, a.Seq, c.seq)
					}
				}
				if resp, err := c.Call(p, echo, []byte("again"), opts); err != nil || string(resp) != "ECHOagain" {
					t.Errorf("next call: %q, %v", resp, err)
				}
			})
			env.Run()
			if n := ctr(srvEng, "engine.oversize_responses"); runs != 2 || n != 1 {
				t.Errorf("handler ran %d times, %d oversize responses counted; want 2 and 1", runs, n)
			}
		})
	}
}

func TestCallOnServerConnRejected(t *testing.T) {
	env, srvEng, cliEng := testCluster(12)
	srv := srvEng.Serve("svc", echoHandler)
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		c.Call(p, 1, []byte("x"), CallOpts{Proto: DirectWriteIMM, Busy: true})
		if _, err := srv.Conns()[0].Call(p, 1, nil, CallOpts{}); err == nil {
			t.Error("Call on server conn accepted")
		}
		env.Stop()
	})
	env.Run()
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		env, srvEng, cliEng := testCluster(99)
		srvEng.Serve("svc", echoHandler)
		var done sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			for i := 0; i < 10; i++ {
				c.Call(p, 1, make([]byte, 1024), CallOpts{Proto: DirectWriteIMM, Busy: true})
			}
			done = p.Now()
			env.Stop()
		})
		env.Run()
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// --- Fig. 6 selection mapping ---

func TestFig06Mapping(t *testing.T) {
	cores := 28
	cases := []struct {
		goal  hints.PerfGoal
		conc  int
		size  int
		proto Protocol
		busy  bool
	}{
		{hints.GoalLatency, 1, 64, DirectWriteIMM, true},
		{hints.GoalLatency, 1, 131072, DirectWriteIMM, true},
		{hints.GoalLatency, 512, 64, DirectWriteIMM, true},
		{hints.GoalThroughput, 8, 512, DirectWriteIMM, true},
		{hints.GoalThroughput, 8, 131072, DirectWriteIMM, true},
		{hints.GoalThroughput, 28, 512, DirectWriteIMM, false},
		{hints.GoalThroughput, 512, 512, DirectWriteIMM, false},
		{hints.GoalThroughput, 512, 131072, RFP, false},
		{hints.GoalResUtil, 8, 512, DirectWriteIMM, false},
		{hints.GoalResUtil, 8, 131072, WriteRNDV, false},
		{hints.GoalResUtil, 512, 512, EagerSendRecv, false},
		{hints.GoalResUtil, 512, 131072, WriteRNDV, false},
	}
	for _, c := range cases {
		r := hints.Resolved{Goal: c.goal, Concurrency: c.conc, Polling: hints.PollAuto}
		plan := SelectPlan(r, cores, c.size, DefaultRndvThreshold)
		if plan.Proto != c.proto || plan.Busy != c.busy {
			t.Errorf("SelectPlan(%s, conc=%d, size=%d) = {%s busy=%v}, want {%s busy=%v}",
				c.goal, c.conc, c.size, plan.Proto, plan.Busy, c.proto, c.busy)
		}
	}
}

// TestSelectPlanPollingOverride: an explicit polling hint overrides the
// derived discipline, and only the discipline, on both of SelectPlan's
// branches — the unknown-payload hybrid fallback and a sized Figure 6
// plan — while auto keeps what the plan derived.
func TestSelectPlanPollingOverride(t *testing.T) {
	cases := []struct {
		goal  hints.PerfGoal
		conc  int
		size  int
		poll  hints.Polling
		proto Protocol
		busy  bool
	}{
		// Unknown payload: Hybrid-EagerRNDV, busy iff under-subscribed.
		{hints.GoalThroughput, 1, 0, hints.PollAuto, HybridEagerRNDV, true},
		{hints.GoalThroughput, 1, 0, hints.PollEvent, HybridEagerRNDV, false},
		{hints.GoalThroughput, 512, 0, hints.PollAuto, HybridEagerRNDV, false},
		{hints.GoalThroughput, 512, 0, hints.PollBusy, HybridEagerRNDV, true},
		// Sized plans.
		{hints.GoalLatency, 1, 64, hints.PollAuto, DirectWriteIMM, true},
		{hints.GoalLatency, 1, 64, hints.PollEvent, DirectWriteIMM, false},
		{hints.GoalResUtil, 512, 64, hints.PollAuto, EagerSendRecv, false},
		{hints.GoalResUtil, 512, 64, hints.PollBusy, EagerSendRecv, true},
	}
	for _, c := range cases {
		r := hints.Resolved{Goal: c.goal, Concurrency: c.conc, Polling: c.poll}
		if plan := SelectPlan(r, 28, c.size, 0); plan.Proto != c.proto || plan.Busy != c.busy {
			t.Errorf("goal=%s conc=%d size=%d polling=%s: plan %s busy=%v, want %s busy=%v",
				c.goal, c.conc, c.size, c.poll, plan.Proto, plan.Busy, c.proto, c.busy)
		}
	}
}

func TestSelectPlanDefaults(t *testing.T) {
	// No hints at all (unknown payload): the engine cannot pre-commit
	// size-specialized buffers, so it stays on the adaptive hybrid.
	plan := SelectPlan(hints.DefaultResolved(), 28, 0, 0)
	if plan.Proto != HybridEagerRNDV || plan.Busy {
		t.Fatalf("default plan = %+v", plan)
	}
	// A payload hint upgrades the plan — the information hints buy.
	r := hints.DefaultResolved()
	r.PayloadSize = 512
	if plan := SelectPlan(r, 28, 0, 0); plan.Proto != DirectWriteIMM {
		t.Fatalf("hinted plan = %+v", plan)
	}
}

// TestProtocolRows checks the row table: every protocol has a name; a
// hybrid has no legs and switches to a protocol that has both; every
// other protocol has both legs, and a probe exactly when its response is
// fetched.
func TestProtocolRows(t *testing.T) {
	for _, pr := range AllProtocols {
		r := pr.row()
		if r.name == "" || pr.String() != r.name {
			t.Errorf("protocol %d has no name (String %q)", pr, pr.String())
		}
		if r.large != ProtoAuto {
			if l := r.large.row(); r.req != legNone || r.resp != legNone || l.req == legNone || l.resp == legNone {
				t.Errorf("%s: hybrid legs %d/%d, its large %s has %d/%d", pr, r.req, r.resp, r.large, l.req, l.resp)
			}
			continue
		}
		if r.req == legNone || r.resp == legNone {
			t.Errorf("%s: request leg %d, response leg %d", pr, r.req, r.resp)
		}
		if fetched := r.resp == legFetch; fetched != (r.probe != fetchProbe{}) {
			t.Errorf("%s: response fetched %v, probe %+v", pr, fetched, r.probe)
		}
	}
	if ProtoAuto.String() != "auto" || Protocol(nProtocols).String() != fmt.Sprintf("Protocol(%d)", nProtocols) {
		t.Errorf("ProtoAuto is %q, the first value past the table %q", ProtoAuto, Protocol(nProtocols))
	}
}
