// Fixture: arena payload lifecycle around Conn.Recycle.
// The "reverted guard" cases below mirror real hot-path sites
// (engine.handleRecvSlot, atb.hotpath) with the lifecycle discipline
// deliberately broken.
package hotpath

import "engine"

func recv(c *engine.Conn) []byte { return nil }
func sink(b []byte)              {}

// readAfterRecycle reads a payload after handing it back.
func readAfterRecycle(c *engine.Conn, b []byte) byte {
	c.Recycle(b)
	return b[0] // want `b used after being released to the arena`
}

// recycleTwice double-releases the same payload.
func recycleTwice(c *engine.Conn, b []byte) {
	c.Recycle(b)
	c.Recycle(b) // want `b released to the arena again`
}

type holder struct{ buf []byte }

// aliasIntoField stores the slice into a field after release.
func aliasIntoField(c *engine.Conn, h *holder, b []byte) {
	c.Recycle(b)
	h.buf = b // want `b used after being released to the arena`
}

// branchRelease releases on one path and uses at the merge: a
// may-violation.
func branchRelease(c *engine.Conn, b []byte, ok bool) {
	if ok {
		c.Recycle(b)
	}
	sink(b) // want `b used after being released to the arena`
}

// loopClean rebinds the payload every iteration: use-then-release per
// iteration is the correct hot-path shape. No diagnostic.
func loopClean(c *engine.Conn, n int) {
	for i := 0; i < n; i++ {
		resp := recv(c)
		sink(resp)
		c.Recycle(resp)
	}
}

// loopCarried releases on iteration k and touches on k+1 via the back
// edge — the reverted-guard version of loopClean.
func loopCarried(c *engine.Conn, n int) {
	b := recv(c)
	for i := 0; i < n; i++ {
		sink(b)      // want `b used after being released to the arena`
		c.Recycle(b) // want `b released to the arena again`
	}
}

// rangeClean: the range value is rebound each iteration. No diagnostic.
func rangeClean(c *engine.Conn, frags [][]byte) {
	for _, frag := range frags {
		sink(frag)
		c.Recycle(frag)
	}
}

// deferClean: the deferred release runs after every ordinary use. No
// diagnostic.
func deferClean(c *engine.Conn, b []byte) byte {
	defer c.Recycle(b)
	sink(b)
	return b[0]
}

// deferDouble: an explicit release makes the deferred one — which runs
// at function exit, hence last — the double release. The diagnostic
// anchors on the deferred call.
func deferDouble(c *engine.Conn, b []byte) {
	defer c.Recycle(b) // want `b released to the arena again`
	sink(b)
	c.Recycle(b)
}

// rebindClean: the variable is rebound to a fresh payload after the
// release, clearing the taint. No diagnostic.
func rebindClean(c *engine.Conn, b []byte) byte {
	c.Recycle(b)
	b = recv(c)
	return b[0]
}
