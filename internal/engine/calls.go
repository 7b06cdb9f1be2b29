package engine

import (
	"encoding/binary"
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// CallOpts selects the protocol and polling discipline for one RPC.
type CallOpts struct {
	// Proto carries the request payload.
	Proto Protocol
	// RespProto tells the server how this client wants the response
	// delivered (client-side hints drive the fetch path). Zero value
	// means "same as Proto".
	RespProto Protocol
	// Busy selects busy polling on the client side (event-driven
	// otherwise).
	Busy bool
	// Oneway sends the request without waiting for any response.
	Oneway bool
	// Deadline bounds the whole call — including retransmissions — in
	// virtual time from its start. Zero falls back to
	// Config.CallDeadline; if both are zero the call is one unbounded
	// attempt and may block forever on a lossy fabric.
	Deadline sim.Duration
}

// hybridSwitch resolves a hybrid protocol against the rendezvous
// threshold. The boundary follows DESIGN.md's hint table ("small/large
// regime vs the 4 KB rendezvous threshold"): payloads up to AND
// INCLUDING DefaultRndvThreshold travel eagerly, in one ring slot;
// strictly larger ones go rendezvous. Both hybrids and both directions
// (request resolution and sendResponse) share this single definition so
// they can never diverge.
func hybridSwitch(proto Protocol, size int) Protocol {
	large := proto.row().large
	if large == ProtoAuto {
		return proto
	}
	if size > DefaultRndvThreshold {
		return large
	}
	return EagerSendRecv
}

// resolve applies the hybrid size switch and the RespProto default
// (ProtoAuto → same as request).
func (o CallOpts) resolve(size int) (req, resp Protocol) {
	resp = o.RespProto
	if resp == ProtoAuto {
		resp = o.Proto
	}
	return hybridSwitch(o.Proto, size), resp
}

// Call performs one RPC: ships req to the server with the requested
// protocol, waits for the response per RespProto, and returns the
// response payload, which the caller owns (Recycle).
func (c *Conn) Call(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	out, err := c.Invoke(p, fn, req, opts)
	if c.lent(out) {
		out = c.copyPayload(out)
	}
	c.loan = nil
	return out, err
}

// Invoke is Call with the response lent: one in the direct region is
// returned where it lies (direct). The connection's next call ends the
// loan and recycles an arena response, so the caller neither keeps the
// response past then nor Recycles it.
func (c *Conn) Invoke(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	c.endLoan(c.loan)
	c.loan = nil
	if c.server {
		return nil, fmt.Errorf("engine: Call on server-side connection")
	}
	if len(req) > c.eng.cfg.MaxMsgSize {
		return nil, fmt.Errorf("engine: request of %d bytes exceeds MaxMsgSize %d", len(req), c.eng.cfg.MaxMsgSize)
	}
	if err := c.breakerGate(p); err != nil {
		return nil, err
	}
	out, err := c.doCall(p, fn, req, opts)
	c.breakerObserve(p, err)
	c.loan = out
	return out, err
}

// deadlineFor resolves a call's absolute deadline: CallOpts.Deadline,
// else Config.CallDeadline, from now. Zero means unbounded.
func (c *Conn) deadlineFor(p *sim.Proc, opts CallOpts) sim.Time {
	dl := opts.Deadline
	if dl == 0 {
		dl = c.eng.cfg.CallDeadline
	}
	if dl == 0 {
		return 0
	}
	return p.Now() + sim.Time(dl)
}

func (c *Conn) doCall(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	eng := c.eng
	c.seq++
	reqProto, respProto := opts.resolve(len(req))
	if c.staged(req) && c.restages(reqProto.row().req, len(req)) {
		req = c.copyPayload(req)
		defer c.Recycle(req)
	}
	eng.em.calls[reqProto].Inc()
	eng.em.bytesSent[reqProto].Add(int64(len(req)))
	start := int64(p.Now())
	h := hdr{
		kind: kReq, proto: reqProto, respProto: respProto,
		fn: fn, length: uint32(len(req)), seq: c.seq,
	}
	until := c.deadlineFor(p, opts)
	h.inPlace = until == 0 && !opts.Oneway
	if opts.Oneway {
		eng.em.oneways.Inc()
		h.respProto = ProtoAuto // marks "no response expected"
		if err := c.sendOnewayReliable(p, h, req, opts.Busy, until); err != nil {
			return nil, err
		}
		if trc := eng.trc; trc != nil {
			trc.Complete("rpc", "oneway."+reqProto.String(), eng.node.ID(), c.id,
				start, int64(p.Now()),
				obs.Arg{K: "fn", V: fn}, obs.Arg{K: "size", V: len(req)})
		}
		return nil, nil
	}
	// One state machine for every call (reliability.go): seq-tagged
	// retransmission with capped exponential backoff under a deadline, a
	// single unbounded attempt without one.
	out, err := c.callReliable(p, h, req, respProto, opts.Busy, until)
	if err != nil {
		if trc := eng.trc; trc != nil {
			trc.Instant("rpc", "call_failed."+reqProto.String(), eng.node.ID(), c.id,
				int64(p.Now()), obs.Arg{K: "fn", V: fn}, obs.Arg{K: "seq", V: h.seq})
		}
		return nil, err
	}
	eng.em.callLat[reqProto].Observe(float64(int64(p.Now()) - start))
	if trc := eng.trc; trc != nil {
		trc.Complete("rpc", "call."+reqProto.String(), eng.node.ID(), c.id,
			start, int64(p.Now()),
			obs.Arg{K: "fn", V: fn}, obs.Arg{K: "size", V: len(req)},
			obs.Arg{K: "resp", V: respProto.String()})
	}
	return out, nil
}

// send ships [hdr|payload] by one leg: a request's (the row of h.proto)
// or a response's (the row of the resolved response protocol); for a
// fetched response, sending is publishing. It reports whether the payload
// was handed to the fabric; false means a wait (a credit, Write-RNDV's
// CTS) passed until or the grant was withdrawn, and the caller's retry
// loop should try again. until zero waits forever (the lossless fast
// path).
func (c *Conn) send(p *sim.Proc, l leg, h hdr, payload []byte, busy bool, until sim.Time) bool {
	switch l {
	case legEager:
		return c.sendEager(p, h, payload, busy, until)
	case legDirectWrite, legChained:
		return c.sendDirectWrite(p, h, payload, l == legChained, busy, until)
	case legWriteImm:
		return c.sendWriteImm(p, h, payload, busy, until)
	case legWriteRNDV:
		return c.sendWriteRNDV(p, h, payload, busy, until)
	case legReadRNDV:
		return c.sendReadRNDV(p, h, payload, busy, until)
	case legSlot:
		// Pure WRITE into the server's polled region: consumes no peer
		// RECV, so no credit is needed.
		c.sendRfpWrite(p, h, payload)
		return true
	case legFetch:
		c.publish(p, h, payload)
		return true
	}
	panic("engine: send: unresolved protocol " + h.proto.String())
}

// sendEager copies the payload into staging slots and SENDs it,
// segmenting messages larger than one ring slot. The defining costs of
// the eager protocol are the copy and the per-slot management work.
// Credits are acquired per fragment — acquiring a whole burst upfront
// could exceed the peer's ring depth and deadlock. A credit timeout
// mid-message abandons the remainder; the retry's full resend completes
// reassembly (the receiver dedups fragments by offset).
func (c *Conn) sendEager(p *sim.Proc, h hdr, payload []byte, busy bool, until sim.Time) bool {
	slotCap := c.slotSize - hdrSize
	cm := c.eng.dev.CostModel()
	segmented := len(payload) > slotCap
	off := 0
	for {
		n := len(payload) - off
		if n > slotCap {
			n = slotCap
		}
		if !c.waitCredit(p, h.proto, busy, until) {
			return false
		}
		c.spend()
		fh := h
		fh.off = uint32(off)
		c.eng.node.CPU.Compute(p, c.eng.node.NUMAWork(sim.Duration(cm.EagerSlotMgmtNs), c.numaBound))
		c.memcpyCharge(p, n)
		c.stage(fh, payload[off:off+n])
		c.qp.PostSend(p, &verbs.SendWR{
			WRID: c.wrid(), Op: verbs.OpSend,
			SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize + n},
			Inline:     hdrSize+n <= 256,
			Unsignaled: true,
		})
		if segmented {
			c.eng.em.eagerFrags.Inc()
			if trc := c.eng.trc; trc != nil {
				trc.Instant("eager", "frag", c.eng.node.ID(), c.id, int64(p.Now()),
					obs.Arg{K: "seq", V: fh.seq}, obs.Arg{K: "off", V: fh.off})
			}
		}
		off += n
		if off >= len(payload) {
			return true
		}
	}
}

// sendDirectWrite WRITEs [hdr|payload] into the peer's pre-known direct
// buffer, then SENDs a notification. chained=false rings one doorbell for
// the WRITE and one for the SEND (Fig. 3b); chained=true posts them as one
// chain (one doorbell, Fig. 3c).
func (c *Conn) sendDirectWrite(p *sim.Proc, h hdr, payload []byte, chained bool, busy bool, until sim.Time) bool {
	// The WRITE is one-sided; only the notify SEND consumes a peer RECV.
	if !c.waitCredit(p, h.proto, busy, until) {
		return false
	}
	c.spend()
	c.stage(h, payload)
	nh := hdr{kind: kNotify, proto: h.proto, seq: h.seq}
	c.putHdrC(c.stageMR.Claim(c.stageNotifyOff(), hdrSize), nh)
	write := verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpWrite,
		SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize + len(payload)},
		Remote:     c.peerDirect,
		Unsignaled: true,
	}
	send := verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpSend,
		SGE:        verbs.SGE{MR: c.stageMR, Off: c.stageNotifyOff(), Len: hdrSize},
		Inline:     true,
		Unsignaled: true,
	}
	if chained {
		write.Next = &send
		c.qp.PostSend(p, &write)
	} else {
		c.qp.PostSend(p, &write)
		c.qp.PostSend(p, &send)
	}
	return true
}

// stageNotifyOff is the staging offset reserved for notify headers — the
// last hdrSize bytes of the staging region.
func (c *Conn) stageNotifyOff() int { return c.stageMR.Len() - hdrSize }

// sendWriteImm WRITEs [hdr|payload] into the peer's direct buffer with an
// immediate, completing delivery in a single work request (Fig. 3f).
// The immediate consumes a zero-length peer RECV, so it costs a credit.
func (c *Conn) sendWriteImm(p *sim.Proc, h hdr, payload []byte, busy bool, until sim.Time) bool {
	if !c.waitCredit(p, h.proto, busy, until) {
		return false
	}
	c.spend()
	c.stage(h, payload)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpWriteImm,
		SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize + len(payload)},
		Remote:     c.peerDirect,
		Imm:        immDirect,
		Inline:     hdrSize+len(payload) <= 256,
		Unsignaled: true,
	})
	return true
}

// sendWriteRNDV runs the WRITE-based rendezvous: RTS, wait for the CTS
// grant, then WRITE_WITH_IMM into the granted pool buffer. It reports
// whether the payload was written; false means the CTS wait timed out
// (bounded by until) or the peer withdrew the grant mid-handshake — the
// caller's retry (or the client's retransmission + server dedup)
// recovers.
func (c *Conn) sendWriteRNDV(p *sim.Proc, h hdr, payload []byte, busy bool, until sim.Time) bool {
	// One credit for the RTS (spent inside postSmall) and one for the
	// final WRITE_IMM's zero-length RECV, acquired separately — holding
	// both across the CTS wait would starve the peer's control traffic.
	if !c.waitCredit(p, h.proto, busy, until) {
		return false
	}
	rts := hdr{kind: kRTS, proto: WriteRNDV, respProto: h.respProto, fn: h.fn, length: h.length, seq: h.seq}
	c.postSmall(p, rts)
	ctsStart := int64(p.Now())
	if !c.waitCTSUntil(p, h.seq, len(payload), busy, until) {
		return false
	}
	c.eng.em.ctsWait.Observe(float64(int64(p.Now()) - ctsStart))
	if trc := c.eng.trc; trc != nil {
		trc.Complete("rndv", "cts_wait", c.eng.node.ID(), c.id,
			ctsStart, int64(p.Now()), obs.Arg{K: "seq", V: h.seq})
	}
	rk, ok := c.shared.rndv[rndvKey(h.seq, c.server)]
	if !ok {
		// The granter aborted after sending CTS and withdrew the buffer.
		return false
	}
	if !c.waitCredit(p, h.proto, busy, until) {
		return false
	}
	c.spend()
	// No copy is charged: rendezvous exists to avoid the eager copy, and
	// the model takes the payload to have been serialized straight into
	// registered staging (stage skips the host copy when it was).
	c.stage(h, payload)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpWriteImm,
		SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize + len(payload)},
		Remote:     rk,
		Imm:        h.seq,
		Unsignaled: true,
	})
	return true
}

// sendReadRNDV exposes the payload in a pool buffer and sends an RTS; the
// peer READs it and FINs (Fig. 3e). A retransmission (same seq, buffer
// still exposed because no FIN arrived) reuses the existing exposure and
// just resends the RTS.
func (c *Conn) sendReadRNDV(p *sim.Proc, h hdr, payload []byte, busy bool, until sim.Time) bool {
	// Only the RTS consumes a peer RECV (the peer READs the payload
	// one-sided and its FIN spends from the peer's own budget).
	if !c.waitCredit(p, h.proto, busy, until) {
		return false
	}
	rts := hdr{kind: kRTS, proto: ReadRNDV, respProto: h.respProto, fn: h.fn, length: h.length, seq: h.seq}
	if _, ok := c.rndvOut[h.seq]; ok {
		c.postSmall(p, rts)
		return true
	}
	// No copy is charged (the model takes the payload to have been
	// serialized into the exposed buffer); the host moves it there, since
	// the exposure must outlive the staging region's next message.
	buf := c.eng.acquireRndv(p, len(payload)+hdrSize)
	b := buf.Claim(0, hdrSize+len(payload))
	putHdr(b, h)
	copy(b[hdrSize:], payload)
	c.rndvOut[h.seq] = buf
	c.shared.rndv[rndvKey(h.seq, c.server)] = buf.RKey()
	c.postSmall(p, rts)
	return true
}

// sendRfpWrite WRITEs [hdr|payload] into the server's polled request
// region (RFP and HERD request path).
func (c *Conn) sendRfpWrite(p *sim.Proc, h hdr, payload []byte) {
	putHdr(c.stageMR.Claim(0, hdrSize), h)
	c.stagePayload(payload)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpWrite,
		SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize + len(payload)},
		Remote:     c.peerRfpIn,
		Unsignaled: true,
	})
}

// readRemote issues one READ and blocks until it completes. ok=false
// means the READ failed (lost in the fabric or flushed on an errored
// QP); the returned bytes are then meaningless.
func (c *Conn) readRemote(p *sim.Proc, rk verbs.RKey, off, n int, busy bool) ([]byte, bool) {
	id := c.wrid()
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: id, Op: verbs.OpRead,
		SGE:    verbs.SGE{MR: c.directMR, Off: 0, Len: n},
		Remote: rk, RemoteOff: off,
	})
	if !c.waitRead(p, id, busy) {
		return nil, false
	}
	return c.directMR.Bytes()[:n], true
}

// fetchProbe is how a server-bypass protocol finds its response in the
// server's published [hdr|payload] region: reads READs of size bytes at
// offset 0, the first of which must carry the call's seq.
type fetchProbe struct{ size, reads int }

// wholeHdr reports whether the probe reads the header's credit word.
func (pr fetchProbe) wholeHdr() bool { return pr.size >= hdrSize }

// fetchUntil is the client half of RFP, Pilaf and FaRM: probe the
// server's published region until its header carries the call's seq,
// then READ the payload bytes the probe did not cover (a metadata probe
// covers none, so its payload READ happens even when empty). A non-zero
// until bounds the polling (zero = forever); a failed READ (loss)
// recovers the QP and keeps polling until the bound. A rejection kind at
// the call's seq is the server's typed refusal and surfaces as a terminal
// error. Poll pacing follows the call's polling discipline (fetchPace):
// busy calls keep the tight spin, event calls back off to the
// interrupt-wake granularity.
func (c *Conn) fetchUntil(p *sim.Proc, proto Protocol, busy bool, until sim.Time) ([]byte, bool, error) {
	pr := proto.row().probe
	var spun sim.Duration
	pace := func() {
		d := c.fetchPace(busy, spun)
		spun += d
		p.Sleep(d)
	}
	for {
		if c.waitOver(p.Now(), until) {
			return nil, false, nil
		}
		b, ok := c.readRemote(p, c.peerRfpOut, 0, pr.size, busy)
		if !ok {
			c.recoverQP(p)
			pace()
			continue
		}
		// A metadata probe holds the header only up to its seq.
		kind, n, seq := b[0], int(binary.LittleEndian.Uint32(b[8:])), binary.LittleEndian.Uint32(b[12:])
		if seq != c.seq || kind != kResp && !rejection(kind) {
			c.noteReadRetry(p)
			pace()
			continue
		}
		if pr.wholeHdr() {
			c.noteCredits(getHdr(b))
		}
		if rejection(kind) {
			return nil, false, rejectErr(kind)
		}
		for i := 1; i < pr.reads; i++ {
			c.readRemote(p, c.peerRfpOut, 0, pr.size, busy)
		}
		if pr.wholeHdr() && n <= pr.size-hdrSize {
			c.eng.em.bytesRecvd.Add(int64(n))
			return c.copyPayload(b[hdrSize : hdrSize+n]), true, nil
		}
		out := c.eng.dev.Get(n)
		got := copy(out, b[min(hdrSize, len(b)):]) // none from a metadata probe
		rest, ok := c.readRemote(p, c.peerRfpOut, hdrSize+got, n-got, busy)
		if !ok {
			c.Recycle(out)
			c.recoverQP(p)
			pace()
			continue
		}
		copy(out[got:], rest)
		c.eng.em.bytesRecvd.Add(int64(n))
		return out, true, nil
	}
}

// noteReadRetry records one stale one-sided poll.
func (c *Conn) noteReadRetry(p *sim.Proc) {
	c.eng.em.readRetries.Inc()
	if trc := c.eng.trc; trc != nil {
		trc.Instant("fetch", "retry", c.eng.node.ID(), c.id, int64(p.Now()),
			obs.Arg{K: "seq", V: c.seq})
	}
}

// ---------------------------------------------------------------------------
// Server response paths

// sendResponse delivers resp for the request described by a, honouring
// the client's requested response protocol, under the polling discipline
// of the Server dispatcher (Server.Busy).
func (c *Conn) sendResponse(p *sim.Proc, a Arrival, resp []byte, busy bool) {
	if !c.server {
		panic("engine: sendResponse on client connection")
	}
	// A prior loss may have erred the QP; cycle it back before posting
	// (no-op on a healthy QP, so free on a lossless fabric).
	c.recoverQP(p)
	// Same switch as the request path (hybridSwitch), applied to the
	// *response* size.
	respProto := hybridSwitch(a.RespProto, len(resp))
	h := hdr{kind: kResp, proto: respProto, respProto: respProto, fn: a.Fn, length: uint32(len(resp)), seq: a.Seq}
	// Under fault injection the protocol-internal waits (rendezvous CTS,
	// credit stalls) are bounded so an aborted client cannot wedge this
	// dispatcher; an abandoned response is recovered by the client's
	// retransmission (dedup).
	var until sim.Time
	if c.faultsActive() {
		until = p.Now() + serverCTSTimeoutNs
	}
	c.send(p, respProto.row().resp, h, resp, busy, until)
}

// publish copies [hdr|payload] into the region the client fetches
// one-sided (fetchUntil), charging the payload and the header bytes the
// client's probe reads. Only local memory work; no network operation.
func (c *Conn) publish(p *sim.Proc, h hdr, payload []byte) {
	c.memcpyCharge(p, len(payload)+min(h.proto.row().probe.size, hdrSize))
	copy(c.rfpOutMR.Claim(hdrSize, len(payload)), payload)
	c.stampFetched(h) // header (with seq stamp) written last
}

// stampFetched writes the header a fetching client probes for. A
// metadata probe stops short of the credit word, so its header carries
// no grant: one stamped with putHdrC would count a grant the client
// never reads.
func (c *Conn) stampFetched(h hdr) {
	if h.proto.row().probe.wholeHdr() {
		c.putHdrC(c.rfpOutMR.Claim(0, hdrSize), h)
	} else {
		putHdr(c.rfpOutMR.Claim(0, hdrSize), h)
	}
}

// respond answers a served request on the response channel the client
// watches: with its response, or with the kBig refusal Server.dispatch
// put in the place of one too large to send.
func (c *Conn) respond(p *sim.Proc, a Arrival, resp []byte, busy bool) {
	if a.Kind == kBig {
		c.sendReject(p, a, kBig)
		return
	}
	c.sendResponse(p, a, resp, busy)
}

// sendReject answers a rejected request with a typed header-only marker
// (kErr for admission sheds, kDrain for the graceful-drain fence, kBig for
// a response over MaxMsgSize) on whatever response channel the client is
// watching. Header-only on every path — the whole point of rejecting is
// that it costs the server ~nothing.
func (c *Conn) sendReject(p *sim.Proc, a Arrival, kind byte) {
	c.recoverQP(p)
	respProto := hybridSwitch(a.RespProto, 0)
	h := hdr{kind: kind, proto: respProto, respProto: respProto, fn: a.Fn, seq: a.Seq}
	if respProto.row().resp == legFetch {
		c.stampFetched(h) // the client's probe sees the rejection at its seq
	} else {
		c.postSmall(p, h) // every other client waits on the eager ring
	}
}
