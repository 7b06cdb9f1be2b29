package engine

import (
	"encoding/binary"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// flowState is the per-connection credit accounting for receiver-driven
// flow control (Config.FlowCredits > 0). The invariant it maintains is
// that the number of un-granted messages in flight toward the peer never
// exceeds the peer's RECV ring depth, so a credit-respecting sender can
// never draw an RNR NAK.
//
// Grants are ABSOLUTE cumulative repost counts, not deltas: every
// outbound header carries the total number of RECV reposts this endpoint
// has performed since connection setup (grantTotal), and the receiver
// advances avail by the wrap-safe difference from the last total it saw
// (peerGrant). Duplicated or reordered grants are therefore idempotent,
// and a grant lost with its carrier message is recovered by the next
// header that makes it through — which matters because responses (and
// grant updates) can be dropped by fault injection.
//
// A small reserve is carved out of the configured credit budget for
// header-only control messages (CTS, FIN, kErr): those are issued from
// pump context where blocking would deadlock, so they spend without
// waiting and may drive avail negative into the reserve. The overdraft is
// bounded — the engine runs one outstanding call per connection, and each
// call issues at most a couple of control messages before the data path
// next blocks on waitCredit.
//
// A grant backlog that no outbound header has carried is announced by a
// one-sided WRITE of the cumulative total into the peer's credit word
// (postGrant). The update consumes no RECV and spends no credit, so
// receiving one creates no grant of its own to announce: an update sent as
// a message did, and two endpoints that had once exchanged updates kept
// answering each other's with one per call for the life of the connection.
type flowState struct {
	avail      int    // spendable credits; may dip below 0 into the reserve
	grantTotal uint32 // cumulative RECV reposts performed locally
	sentGrant  uint32 // grantTotal as of the last header we stamped
	peerGrant  uint32 // last cumulative total received from the peer
	lowWater   int    // un-piggybacked grants that force an async kCredit
}

// newFlowState sizes the credit budget for a connection whose peer posts
// `slots` RECVs. The budget is clamped to the ring depth (more credits
// than slots would defeat the point), a quarter (max 4) is reserved for
// control traffic, and the async-update low-water mark is half the
// spendable budget but never below 2, so a lone repost waits for the next
// header instead of costing a work request of its own.
func newFlowState(flowCredits, slots int) *flowState {
	credits := flowCredits
	if credits > slots {
		credits = slots
	}
	reserve := credits / 4
	if reserve > 4 {
		reserve = 4
	}
	avail := credits - reserve
	if avail < 1 {
		avail = 1
	}
	lowWater := avail / 2
	if lowWater < 2 {
		lowWater = 2
	}
	return &flowState{avail: avail, lowWater: lowWater}
}

// putHdrC stamps the header with the current cumulative grant and writes
// it. Every outbound header is a grant carrier; with flow control off it
// degrades to putHdr with a zero credits field — byte-identical to the
// pre-credit wire format.
func (c *Conn) putHdrC(b []byte, h hdr) {
	if fc := c.fc; fc != nil {
		h.credits = fc.grantTotal
		fc.sentGrant = fc.grantTotal
	}
	putHdr(b, h)
}

// noteCredits consumes the piggybacked grant of an inbound header.
func (c *Conn) noteCredits(h hdr) {
	if fc := c.fc; fc != nil {
		fc.noteGrant(h.credits)
		// No wakeup needed: headers are only read inside this conn's own
		// pump loops (waitCredit included), which re-check avail on the
		// next iteration.
	}
}

// noteGrant advances avail to the peer's cumulative grant total.
func (fc *flowState) noteGrant(total uint32) {
	if d := int32(total - fc.peerGrant); d > 0 {
		fc.peerGrant = total
		fc.avail += int(d)
	}
}

// The credit word region: the peer WRITEs its cumulative grant total into
// the first word; the second is the source of this endpoint's own updates.
const (
	creditWordIn  = 0
	creditWordOut = 4
	creditWords   = 8
)

// onCreditWrite runs when the peer's grant update lands in the credit
// word. It runs in scheduler context, outside any pump loop, so a sender
// parked in waitCredit has to be woken — and only such a sender: avail was
// not positive before the update.
func (c *Conn) onCreditWrite(off, n int) {
	fc := c.fc
	starved := fc.avail <= 0
	fc.noteGrant(binary.LittleEndian.Uint32(c.creditMR.Bytes()[creditWordIn:]))
	if starved && fc.avail > 0 {
		c.sig.Fire()
	}
}

// postGrant announces the cumulative grant total on its own, by a WRITE
// into the peer's credit word.
func (c *Conn) postGrant(p *sim.Proc) {
	fc := c.fc
	fc.sentGrant = fc.grantTotal
	binary.LittleEndian.PutUint32(c.creditMR.Claim(creditWordOut, 4), fc.grantTotal)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpWrite,
		SGE:        verbs.SGE{MR: c.creditMR, Off: creditWordOut, Len: 4},
		Remote:     c.peerCredit,
		Inline:     true,
		Unsignaled: true,
	})
}

// noteRepost records that one RECV was reposted to the ring (one more
// message the peer may now send). If the grant backlog that has not yet
// ridden an outbound header reaches the low-water mark, an update of its
// own carries it (postGrant) — this keeps one-directional flows (oneway
// floods, long request bursts with no response traffic) from starving the
// peer.
func (c *Conn) noteRepost(p *sim.Proc) {
	fc := c.fc
	if fc == nil {
		return
	}
	fc.grantTotal++
	if int32(fc.grantTotal-fc.sentGrant) >= int32(fc.lowWater) {
		c.eng.em.creditUpdates.Inc()
		c.postGrant(p)
	}
}

// spend consumes one credit without blocking (control-message path).
func (c *Conn) spend() {
	if fc := c.fc; fc != nil {
		fc.avail--
	}
}

// waitCredit blocks until at least one credit is spendable, pumping the
// CQ so inbound grants (and unrelated arrivals, which are queued) can
// land. A non-zero until bounds the wait; false means the bound passed
// with the peer's ring still full (or the attempt ended on evidence,
// waitOver). The caller spends separately —
// keeping acquisition and spending distinct lets fragmented sends
// acquire per fragment instead of needing the whole burst upfront
// (which could exceed the ring and deadlock).
func (c *Conn) waitCredit(p *sim.Proc, proto Protocol, busy bool, until sim.Time) bool {
	fc := c.fc
	if fc == nil || fc.avail > 0 {
		return true
	}
	eng := c.eng
	eng.em.creditStalls[proto].Inc()
	if trc := eng.trc; trc != nil {
		trc.Instant("engine", "credit_stall."+proto.String(), eng.node.ID(), c.id,
			int64(p.Now()), obs.Arg{K: "avail", V: int64(fc.avail)})
	}
	c.enterWait(busy)
	defer c.exitWait()
	until = c.waitUntil(p.Now(), until)
	defer c.armWake(until).Stop()
	for fc.avail <= 0 {
		if c.waitOver(p.Now(), until) {
			return false
		}
		if c.pumpCompletions(p) > 0 {
			continue
		}
		c.sig.Wait(p)
	}
	c.chargeDetect(p, busy)
	return true
}
