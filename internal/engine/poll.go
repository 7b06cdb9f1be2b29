package engine

import (
	"hatrpc/internal/hatdebug"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// pollBudget is how many completions one pump wakeup drains from the CQ
// (CQ.PollN) under a single detection charge.
const pollBudget = 16

// pumpCompletions drains immediately-available completions into the pump
// — up to pollBudget per call, so one wakeup (and one detection charge,
// paid by the caller) covers a whole burst — queueing any finished
// arrivals on respQueue, and returns how many completions were consumed.
func (c *Conn) pumpCompletions(p *sim.Proc) int {
	var wcs [pollBudget]verbs.WC
	n := c.cq.PollN(wcs[:])
	for i := 0; i < n; i++ {
		if a, done := c.handleWC(p, wcs[i]); done {
			c.respQueue.Push(a)
		}
	}
	return n
}

// fetchSpinPaceMult paces one-sided result polls while spinning:
// 15×PollGranularityNs reproduces the 600 ns pace the fetch loops
// previously hardcoded.
const fetchSpinPaceMult = 15

// fetchPace derives the delay before the next one-sided result poll from
// the call's polling discipline and how long the fetch has already spun.
// Busy fetches keep the tight pace up to the RC retry timeout (a result
// that late means loss, not latency); event fetches never spin — they
// pace at the interrupt-wake granularity from the first retry.
func (c *Conn) fetchPace(busy bool, spun sim.Duration) sim.Duration {
	cm := c.eng.dev.CostModel()
	if busy && spun < sim.Duration(cm.RetryTimeoutNs) {
		return sim.Duration(fetchSpinPaceMult * cm.PollGranularityNs)
	}
	return sim.Duration(cm.InterruptWakeNs)
}

// ---------------------------------------------------------------------------
// Payloads

// copyPayload copies delivered bytes out of a registered region into a
// buffer of the node's arena (verbs.Device.Get) that the receiver owns.
func (c *Conn) copyPayload(src []byte) []byte {
	b := c.eng.dev.Get(len(src))
	copy(b, src)
	c.eng.em.copyOut.Add(int64(len(src)))
	return b
}

// Recycle returns a payload buffer previously delivered by this
// connection (a Call result) to the node's arena. It is optional — an
// unrecycled buffer is ordinary garbage — but after Recycle the buffer must
// not be touched: a later delivery reuses it. Server handlers never call
// it for their request: the dispatcher returns every request on every path,
// and a served one only once the dedup entry that holds it is replaced by
// the connection's next served request (see Handler). A window onto the
// direct region is not the arena's: Recycle skips it; hatdebug panics.
func (c *Conn) Recycle(b []byte) {
	if hatdebug.On && c.lent(b) {
		panic("engine: Recycle of a window onto the direct region")
	}
	if !c.lent(b) {
		c.eng.dev.Put(b)
	}
}

// lent reports whether b is a window onto the direct region (direct),
// whether or not the region has since moved away from it.
func (c *Conn) lent(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	return &b[0] == c.win
}

// endLoan ends b's loan: a window's through the region (verbs.MR.EndLend,
// which poisons it under hatdebug), an arena buffer's by recycling it.
func (c *Conn) endLoan(b []byte) {
	switch {
	case !c.lent(b):
		c.eng.dev.Put(b)
	case c.directMR != nil:
		c.directMR.EndLend()
	default:
		hatdebug.Poison(b) // past Close
	}
}
