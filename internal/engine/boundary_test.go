package engine

import (
	"bytes"
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// TestHybridSwitchBoundary pins the rendezvous switchover boundary for
// both hybrid protocols: payloads up to AND INCLUDING the threshold
// travel eagerly, strictly larger ones go rendezvous (DESIGN.md's 4 KB
// Hybrid-EagerRNDV threshold).
func TestHybridSwitchBoundary(t *testing.T) {
	const th = DefaultRndvThreshold
	cases := []struct {
		proto Protocol
		size  int
		want  Protocol
	}{
		{HybridEagerRNDV, 0, EagerSendRecv},
		{HybridEagerRNDV, th - 1, EagerSendRecv},
		{HybridEagerRNDV, th, EagerSendRecv},
		{HybridEagerRNDV, th + 1, WriteRNDV},
		{HybridEagerRead, th, EagerSendRecv},
		{HybridEagerRead, th + 1, ReadRNDV},
		// Non-hybrids pass through untouched regardless of size.
		{WriteRNDV, 1, WriteRNDV},
		{EagerSendRecv, th + 1, EagerSendRecv},
	}
	for _, c := range cases {
		if got := hybridSwitch(c.proto, c.size); got != c.want {
			t.Errorf("hybridSwitch(%s, %d) = %s, want %s", c.proto, c.size, got, c.want)
		}
	}
}

// TestResolveBoundaryMatchesBehavior checks the boundary end-to-end on
// both directions: a threshold-sized payload through a hybrid touches no
// rendezvous pool buffer (eager path), threshold+1 does.
func TestResolveBoundaryMatchesBehavior(t *testing.T) {
	const th = DefaultRndvThreshold
	allocs := func(reqSize, respSize int) (srvAllocs, cliAllocs int64) {
		env, srvEng, cliEng := testCluster(21)
		observe(srvEng, cliEng)
		srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
			return make([]byte, respSize)
		})
		env.Spawn("client", func(p *sim.Proc) {
			c := cliEng.Dial(p, srvEng.Node(), "svc")
			if _, err := c.Call(p, 1, make([]byte, reqSize),
				CallOpts{Proto: HybridEagerRNDV, RespProto: HybridEagerRNDV, Busy: true}); err != nil {
				t.Error(err)
			}
			env.Stop()
		})
		env.Run()
		// Request rendezvous allocates at the server (grant), response
		// rendezvous at the client.
		return ctr(srvEng, "engine.rndv_pool.miss"), ctr(cliEng, "engine.rndv_pool.miss")
	}
	if s, c := allocs(th, th); s != 0 || c != 0 {
		t.Errorf("threshold-sized req/resp used rendezvous (srv=%d cli=%d allocs), want eager", s, c)
	}
	if s, _ := allocs(th+1, th); s == 0 {
		t.Error("threshold+1 request did not use rendezvous")
	}
	if _, c := allocs(th, th+1); c == 0 {
		t.Error("threshold+1 response did not use rendezvous")
	}
}

// TestHeadersThatDoNotFitAreDropped: a header is the peer's word, and one
// whose length overruns MaxMsgSize, or whose fragment lies outside its
// message, must not size or index a buffer. Each such header is stamped
// into every place a request lands — the direct region by WRITE_IMM and
// by notify, an eager fragment, both rendezvous RTSes, the RFP request
// region — and dropped there; a good call on every protocol follows.
func TestHeadersThatDoNotFitAreDropped(t *testing.T) {
	env, srvEng, cliEng := testCluster(29)
	observe(srvEng, cliEng)
	ran := 0
	srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte {
		if fn != 1 {
			t.Errorf("the handler ran for the stamped header of fn %d", fn)
		}
		ran++
		return echoHandler(p, fn, req)
	})
	huge := uint32(srvEng.Config().MaxMsgSize + 1)
	small := pattern(100)
	env.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		eager := func(h hdr) { // one SEND of [h|small], as stamped
			c.stage(h, small)
			c.qp.PostSend(p, &verbs.SendWR{
				WRID: c.wrid(), Op: verbs.OpSend,
				SGE:        verbs.SGE{MR: c.stageMR, Off: stageMsgOff, Len: hdrSize + len(small)},
				Unsignaled: true,
			})
		}
		req := func(proto Protocol, length, off uint32) hdr {
			return hdr{kind: kReq, proto: proto, respProto: proto, fn: 2, length: length, seq: 100, off: off}
		}
		c.sendWriteImm(p, req(DirectWriteIMM, huge, 0), small, true, 0)
		c.sendDirectWrite(p, req(DirectWriteSend, ^uint32(0), 0), small, false, true, 0)
		eager(req(EagerSendRecv, 200, 4000))
		eager(req(EagerSendRecv, huge, 0))
		c.postSmall(p, hdr{kind: kRTS, proto: WriteRNDV, respProto: WriteRNDV, fn: 2, length: huge, seq: 100})
		c.postSmall(p, hdr{kind: kRTS, proto: ReadRNDV, respProto: ReadRNDV, fn: 2, length: huge, seq: 100})
		c.sendRfpWrite(p, req(RFP, huge, 0), small)
		p.Sleep(100_000)
		for _, proto := range AllProtocols {
			if resp, err := c.Call(p, 1, small, CallOpts{Proto: proto, Busy: true}); err != nil || !bytes.Equal(resp, echoHandler(nil, 1, small)) {
				t.Errorf("%s: a good call after the stamped headers: %d bytes, %v", proto, len(resp), err)
			}
		}
	})
	env.Run()
	if got := ctr(srvEng, "engine.dropped_headers"); got != 7 {
		t.Errorf("%d headers dropped, want the 7 stamped", got)
	}
	if ran != len(AllProtocols) {
		t.Errorf("the handler ran %d times, want %d", ran, len(AllProtocols))
	}
	assertNoLeaks(t, srvEng, cliEng)
}
