package engine

import "hatrpc/internal/sim"

// The staging region lays out [notify|hdr|payload]: a message's header
// and payload go out as one [hdr|payload] range at stageMsgOff, and the
// header slot in front of it carries the notify SEND of a Direct-Write
// chain, and every other control header (postSmall), without touching the
// message.
const (
	stageNotifyOff  = 0
	stageMsgOff     = hdrSize
	stagePayloadOff = stageMsgOff + hdrSize
)

// Stage lends the payload area of the connection's staging region, empty,
// with the capacity the region holds so far: its memory grows with the
// messages staged in it (verbs.MR), up to MaxMsgSize. A caller that
// serializes a message straight into it (appending) and hands the result
// to the next Call on this connection, or returns it as the handler's
// response, saves that send its staging copy; a message that outgrows
// the capacity is appended elsewhere, and its send copies it in, growing
// the region for the next. The loan ends with that call: the region is
// the connection's one outbound buffer, and whatever it sends next
// overwrites it. Lending claims the area (verbs.MR.Claim), so a packet
// still reading an earlier message from it keeps that message. A closed
// connection lends nothing.
func (c *Conn) Stage() []byte {
	if c.closed {
		return nil
	}
	n := max(0, c.stageMR.Allocated()-stagePayloadOff)
	return c.stageMR.Claim(stagePayloadOff, n)[:0]
}

// staged reports whether payload was serialized into the staging region.
func (c *Conn) staged(payload []byte) bool {
	return c.stageMR.IsAt(stagePayloadOff, payload)
}

// stage lays [hdr|payload] out in the staging region.
func (c *Conn) stage(h hdr, payload []byte) {
	c.putHdrC(c.stageMR.Claim(stageMsgOff, hdrSize), h)
	c.stagePayload(payload)
}

// stagePayload puts payload behind the header slot, unless it is there
// already (see Stage).
func (c *Conn) stagePayload(payload []byte) {
	if !c.staged(payload) {
		copy(c.stageMR.Claim(stagePayloadOff, len(payload)), payload)
		c.eng.em.stageCopy.Add(int64(len(payload)))
	}
}

// restages reports whether sending n payload bytes by leg l writes over
// the staging payload area while it does: an eager message longer than
// one ring slot stages its fragments there one after another. A payload
// that was serialized into that area must be moved out first, or a
// retransmission would find it overwritten; every other leg sends a
// staged payload from where it lies.
func (c *Conn) restages(l leg, n int) bool {
	return l == legEager && n > c.slotSize-hdrSize
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
