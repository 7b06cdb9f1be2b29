package engine

import (
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// writeChunk is the unit a bulk WRITE is cut into. The simulated NIC
// handles a work request store-and-forward — it fetches the whole payload
// over PCIe, then serializes it, and the responder's RX gate takes it
// whole again — so one 128 KB WRITE crosses those three stages strictly in
// turn, while a train of chunk-sized WRITEs overlaps them: chunk i+1 is
// fetched while chunk i is on the wire and chunk i−1 crosses the RX gate.
// Smaller chunks overlap more, but each pays the NIC's per-WR fetch
// overhead, and below about 9 KB a chunk's fetch (WQE + DMA) takes longer
// than its wire time, which would make a train the bottleneck of a
// saturated link. 12 KB is the smallest chunk of the sweep recorded in
// DESIGN.md §18 that keeps saturated throughput where one WRITE per
// message had it; unloaded it gives up 1.3 % of 8 KB's goodput.
const writeChunk = 12 << 10

// postWrite posts the WRITE that carries a staged message. last describes
// it as one work request over stageMR[0:n] — its opcode, target, immediate
// and whatever is chained behind it (Chained-Write-Send's notify) — and a
// message of at most two chunks is posted exactly so. A longer message
// goes out as a train: plain WRITEs of consecutive chunks to consecutive
// remote offsets, then last over the final chunk, all behind one doorbell.
// Only last can complete the message at the receiver (its immediate, the
// notify behind it, or — for a polled region — its covering the message's
// final byte), and RC ordering puts every chunk in place before it.
func (c *Conn) postWrite(p *sim.Proc, h hdr, last *verbs.SendWR) {
	n := last.SGE.Len
	if n <= 2*writeChunk {
		c.qp.PostSend(p, last)
		return
	}
	chunks := (n + writeChunk - 1) / writeChunk
	if cap(c.train) < chunks {
		c.train = make([]verbs.SendWR, chunks)
	}
	wrs := c.train[:chunks]
	for i := range wrs[:chunks-1] {
		wrs[i] = verbs.SendWR{
			WRID: c.wrid(), Op: verbs.OpWrite,
			SGE:        verbs.SGE{MR: c.stageMR, Off: i * writeChunk, Len: writeChunk},
			Remote:     last.Remote,
			RemoteOff:  i * writeChunk,
			Unsignaled: true,
			Next:       &wrs[i+1],
		}
	}
	tail := &wrs[chunks-1]
	*tail = *last
	tail.SGE.Off = (chunks - 1) * writeChunk
	tail.SGE.Len = n - tail.SGE.Off
	tail.RemoteOff = tail.SGE.Off
	c.eng.em.chunkWRs[h.proto].Add(int64(chunks))
	if trc := c.eng.trc; trc != nil {
		trc.Instant("rndv", "train", c.eng.node.ID(), c.id, int64(p.Now()),
			obs.Arg{K: "seq", V: h.seq}, obs.Arg{K: "chunks", V: chunks}, obs.Arg{K: "bytes", V: n})
	}
	c.qp.PostSend(p, &wrs[0])
}

// Stage lends the payload area of the connection's staging region, empty
// and with room for MaxMsgSize bytes. A caller that serializes a message
// straight into it (appending; never past the capacity) and hands the
// result to the next Call on this connection, or returns it as the
// handler's response, saves that send its staging copy. The loan ends with that call: the region is the
// connection's one outbound buffer, and whatever it sends next overwrites
// it. A closed connection lends nothing.
func (c *Conn) Stage() []byte {
	if c.closed {
		return nil
	}
	return c.stageMR.Buf[hdrSize:hdrSize:c.stageNotifyOff()]
}

// staged reports whether payload was serialized into the staging region.
func (c *Conn) staged(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	return &payload[0] == &c.stageMR.Buf[hdrSize]
}

// stage lays [hdr|payload] out at the head of the staging region.
func (c *Conn) stage(h hdr, payload []byte) {
	c.putHdrC(c.stageMR.Buf, h)
	c.stagePayload(payload)
}

// stagePayload puts payload behind the header slot, unless it is there
// already (see Stage).
func (c *Conn) stagePayload(payload []byte) {
	if !c.staged(payload) {
		copy(c.stageMR.Buf[hdrSize:], payload)
	}
}

// restages reports whether sending n payload bytes by proto writes over
// the staging payload area while it does: an eager message longer than
// one ring slot stages its fragments there one after another. A payload
// that was serialized into that area must be moved out first, or a
// retransmission would find it overwritten; every other protocol sends a
// staged payload from where it lies.
func (c *Conn) restages(proto Protocol, n int) bool {
	switch proto {
	case EagerSendRecv, Pilaf, FaRM, HERD:
		return n > c.slotSize-hdrSize
	}
	return false
}

// ResponseStage is Conn.Stage for a request handler: it lends the staging
// region of the connection whose dispatcher p is, or nil when p is not a
// dispatcher (a handler reached over another transport). A response
// serialized into it and returned from the Handler is sent from where it
// lies.
func ResponseStage(p *sim.Proc) []byte {
	if c, ok := p.Value.(*Conn); ok {
		return c.Stage()
	}
	return nil
}
