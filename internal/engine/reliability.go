package engine

import (
	"errors"
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// Typed call failures. A deadline-bounded call always returns one of
// these (or succeeds); it never blocks forever. The reliability layer
// wraps these sentinels with per-call context, so callers must match
// them with errors.Is (or IsUnavailable) — never with ==.
var (
	// ErrDeadline: the call's deadline expired before a response arrived.
	// The transport looked healthy at expiry — the request or response
	// was lost (or the server is slow) and retries ran out of time.
	ErrDeadline = errors.New("engine: call deadline exceeded")
	// ErrPeerDown: the deadline expired with the connection's QP in the
	// error state — the transport to the peer was failing at expiry
	// (link flap, partition, peer crash), not merely slow.
	ErrPeerDown = errors.New("engine: peer unreachable")
	// ErrStaleShardEpoch: the request carried a shard epoch older than
	// the replica's current one — the shard failed over and this client
	// (or a deposed primary) is routing on a stale shard map. Minted by
	// cluster tiers layered above the engine (internal/cluster), defined
	// here so it joins the engine's unavailability class: the remedy —
	// refresh routing state and replay — is the session playbook, one
	// layer up. Mirrors the verbs epoch-tagged-RKey discipline
	// (WCRemoteInvalid on stale rkeys) at the shard level.
	ErrStaleShardEpoch = errors.New("engine: stale shard epoch")
	// ErrDraining: the server is in graceful drain — it answered the
	// request with a typed header-only rejection instead of executing it.
	// Unlike ErrOverloaded (a transient shed under admission pressure),
	// draining announces the node is going away on purpose: clients
	// should re-route to another replica rather than retry the same peer.
	ErrDraining = errors.New("engine: server draining (session fenced)")
)

// IsUnavailable reports whether err is an availability-class failure,
// wrapped or bare. These are the errors that say "the peer, or the path
// to it, or the routing state naming it, is unhealthy right now": the
// session layer and cluster clients react to them with
// reconnect/refresh + replay; validation and typed application errors
// are not in the class. The full set is pinned by a table test:
//
//	ErrDeadline        — response never arrived in time
//	ErrPeerDown        — transport failing at expiry
//	ErrOverloaded      — server shed the request under admission control
//	ErrDraining        — server fenced the request during graceful drain
//	ErrSessionReset    — reconnect interrupted a non-idempotent call
//	ErrCircuitOpen     — breaker is open; peer recently unhealthy
//	ErrStaleShardEpoch — shard failed over; routing state is stale
//
// Of these only the first four feed the circuit breaker: breakerObserve
// runs on transport call outcomes, where the last three are never
// produced (ErrCircuitOpen is minted by the breaker gate before the
// call, ErrSessionReset and ErrStaleShardEpoch by layers above Conn).
// A draining peer tripping the breaker is intended: it steers new calls
// away from the node faster than per-call rejections would.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrPeerDown) ||
		errors.Is(err, ErrOverloaded) || errors.Is(err, ErrSessionReset) ||
		errors.Is(err, ErrCircuitOpen) || errors.Is(err, ErrStaleShardEpoch) ||
		errors.Is(err, ErrDraining)
}

// rejectErr maps a typed header-only rejection kind to its sentinel.
func rejectErr(kind byte) error {
	if kind == kDrain {
		return ErrDraining
	}
	return ErrOverloaded
}

// Retry pacing. The backoff starts comfortably above the RC retry
// timeout (so a dropped message has erred its QP before the first
// retransmission probes it) and doubles up to the cap.
const (
	retryBackoffBaseNs = 50_000  // first retransmission wait
	retryBackoffCapNs  = 400_000 // backoff ceiling
	// serverCTSTimeoutNs bounds a server dispatcher's rendezvous-CTS
	// wait when fault injection is active, so a client that aborted
	// mid-handshake cannot wedge the dispatcher. The client's
	// retransmission (dedup) restarts the response from scratch.
	serverCTSTimeoutNs = 200_000
)

// faultsActive reports whether the cluster has a fault plan installed.
// All reliability-only costs (bounded server waits, QP recovery) hide
// behind it or behind an explicit deadline, keeping the lossless-fabric
// path byte-identical to builds without this layer.
func (c *Conn) faultsActive() bool {
	return c.eng.node.Cluster().Faults() != nil
}

// recoverQP cycles the connection's QP out of the error state (if a
// prior loss erred it) before the next attempt touches the wire.
func (c *Conn) recoverQP(p *sim.Proc) {
	if !c.qp.Errored() {
		return
	}
	c.qp.Recover(p)
	if m := c.eng.em; m != nil {
		m.qpRecoveries.Inc()
	}
}

// armWake schedules a signal fire at the given virtual time so a bounded
// wait loop gets a chance to observe its timeout. A zero bound (an
// unbounded wait) arms nothing. Spurious fires (the wait already
// returned) are absorbed by the signal's condition loops.
func (c *Conn) armWake(until sim.Time) {
	if until > c.eng.env.Now() {
		c.eng.env.At(until, c.wake)
	}
}

// attemptBound is the end of one retransmission attempt: backoff from
// now, capped at the call's deadline. An unbounded call (until zero) gets
// one unbounded attempt.
func attemptBound(now sim.Time, backoff sim.Duration, until sim.Time) sim.Time {
	if until == 0 {
		return 0
	}
	return min(now+sim.Time(backoff), until)
}

// expired reports whether a bound has passed; zero never expires.
func expired(now, until sim.Time) bool { return until > 0 && now >= until }

// callReliable runs the deadline/retransmit state machine around one
// request/response call: send the request (seq-tagged), wait up to the
// current backoff for the response, and retransmit with doubled backoff
// until the response arrives or the deadline expires. The server
// deduplicates by seq, so a retransmitted request is executed at most
// once; stale duplicate responses are discarded by seq filtering. until
// zero means no deadline, like every *Until helper below it: the first
// attempt waits forever and no wake is armed — on a lossless fabric that
// is exactly send, then wait for the response.
func (c *Conn) callReliable(p *sim.Proc, h hdr, req []byte, respProto Protocol, poll PollMode, until sim.Time) ([]byte, error) {
	eng := c.eng
	backoff := sim.Duration(retryBackoffBaseNs)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if m := eng.em; m != nil {
				m.retries.Inc()
			}
			eng.trc.Instant("rpc", "retry", eng.node.ID(), c.id, int64(p.Now()),
				obs.Arg{K: "seq", V: h.seq}, obs.Arg{K: "attempt", V: attempt})
		}
		c.recoverQP(p)
		attemptUntil := attemptBound(p.Now(), backoff, until)
		if c.sendMessageUntil(p, h, req, poll, attemptUntil) {
			var out []byte
			var ok bool
			var err error
			switch respProto {
			case RFP:
				out, ok, err = c.fetchRFPUntil(p, poll, attemptUntil)
			case Pilaf:
				out, ok, err = c.fetchKVUntil(p, 2, poll, attemptUntil)
			case FaRM:
				out, ok, err = c.fetchKVUntil(p, 1, poll, attemptUntil)
			default:
				out, ok, err = c.awaitResponse(p, h.seq, poll, attemptUntil)
			}
			if err != nil {
				// Typed server rejection (shed): terminal — retrying into
				// an overloaded server immediately only feeds the overload.
				c.abortCall(h.seq)
				return nil, err
			}
			if ok {
				return out, nil
			}
		} else if out, ok, err := c.pollResponse(p, h.seq, poll); ok || err != nil {
			// The handshake timed out because the server already served
			// this request (its dedup path answers a retransmitted RTS
			// with the response, never a CTS) — and the response was
			// pumped into respQueue by the failed handshake wait itself.
			// Without this check the retry loop would spin on RTS → dup
			// response → CTS timeout until the deadline.
			if err != nil {
				c.abortCall(h.seq)
				return nil, err
			}
			return out, nil
		}
		if expired(p.Now(), until) {
			return nil, c.failCall(h.seq)
		}
		backoff *= 2
		if backoff > retryBackoffCapNs {
			backoff = retryBackoffCapNs
		}
	}
}

// sendOnewayReliable is the oneway variant: there is no response to
// confirm delivery, but protocols with a handshake (Write-RNDV's
// RTS/CTS) still need bounded waits and retransmission to get the
// payload off the node.
func (c *Conn) sendOnewayReliable(p *sim.Proc, h hdr, req []byte, poll PollMode, until sim.Time) error {
	eng := c.eng
	backoff := sim.Duration(retryBackoffBaseNs)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if m := eng.em; m != nil {
				m.retries.Inc()
			}
		}
		c.recoverQP(p)
		attemptUntil := attemptBound(p.Now(), backoff, until)
		if c.sendMessageUntil(p, h, req, poll, attemptUntil) {
			return nil
		}
		if expired(p.Now(), until) {
			return c.failCall(h.seq)
		}
		backoff *= 2
		if backoff > retryBackoffCapNs {
			backoff = retryBackoffCapNs
		}
	}
}

// failCall records a deadline expiry, reclaims the call's per-seq
// control state, and maps the failure to its typed error.
func (c *Conn) failCall(seq uint32) error {
	c.abortCall(seq)
	if m := c.eng.em; m != nil {
		m.deadlineExceeded.Inc()
	}
	if c.qp.Errored() {
		return fmt.Errorf("engine: seq %d: %w", seq, ErrPeerDown)
	}
	return fmt.Errorf("engine: seq %d: %w", seq, ErrDeadline)
}

// abortCall reclaims the per-seq control state of a call that died
// mid-flight, so deadline-exceeded calls leak neither map entries nor
// pinned bytes. Rendezvous buffers that a peer-side one-sided transfer
// may still target cannot be returned to the pool immediately (the DMA
// would land in a recycled buffer); they move to the orphan tables and
// are released by the late completion (WRITE_IMM, READ, FIN) or by
// Close, whichever comes first.
func (c *Conn) abortCall(seq uint32) {
	delete(c.ctsReady, seq)
	delete(c.frags, seq)
	if buf, ok := c.rndvIn[seq]; ok {
		delete(c.rndvIn, seq)
		// Withdraw the grant so the peer's late rkey lookup fails cleanly
		// instead of writing into a buffer we are about to recycle.
		delete(c.shared.rndv, rndvKey(seq, !c.server))
		c.orphanIn[seq] = buf
	}
	if buf, ok := c.rndvOut[seq]; ok {
		delete(c.rndvOut, seq)
		// The shared entry stays: a peer READ may be in flight against
		// it. The FIN (or Close) removes both.
		c.orphanOut[seq] = buf
	}
}

// awaitResponse pumps completions until the response for seq arrives or
// the bound expires (zero = never). Responses for other seqs are stale
// duplicates from earlier attempts (or earlier calls) and are discarded
// — the dedup guarantee means their payloads equal what the original
// call already returned. A kErr/kDrain arrival for seq is the server's typed
// rejection and returns ErrOverloaded / ErrDraining.
func (c *Conn) awaitResponse(p *sim.Proc, seq uint32, poll PollMode, until sim.Time) ([]byte, bool, error) {
	c.enterWait(poll)
	defer c.exitWait()
	c.armWake(until)
	for {
		for len(c.respQueue) > 0 {
			a := c.popArrival()
			if a.Seq != seq {
				continue
			}
			if a.Kind == kResp {
				c.chargeDetect(p, poll)
				c.stats.BytesRecvd += int64(len(a.Payload))
				return a.Payload, true, nil
			}
			if a.Kind == kErr || a.Kind == kDrain {
				c.chargeDetect(p, poll)
				return nil, false, rejectErr(a.Kind)
			}
		}
		if expired(p.Now(), until) {
			return nil, false, nil
		}
		if c.pumpCompletions(p) > 0 {
			continue
		}
		c.pumpWait(p, poll)
	}
}

// pollResponse scans the queued arrivals for the response (or shed
// rejection) to seq without blocking, consuming it when present.
// Non-matching entries are left for awaitResponse's drain to discard.
func (c *Conn) pollResponse(p *sim.Proc, seq uint32, poll PollMode) ([]byte, bool, error) {
	for i, a := range c.respQueue {
		if a.Seq != seq || (a.Kind != kResp && a.Kind != kErr && a.Kind != kDrain) {
			continue
		}
		c.respQueue = append(c.respQueue[:i], c.respQueue[i+1:]...)
		c.chargeDetect(p, poll)
		if a.Kind == kErr || a.Kind == kDrain {
			return nil, false, rejectErr(a.Kind)
		}
		c.stats.BytesRecvd += int64(len(a.Payload))
		return a.Payload, true, nil
	}
	return nil, false, nil
}

// releaseOrphan returns an orphaned rendezvous buffer (the late
// completion for an aborted call finally arrived).
func (c *Conn) releaseOrphan(m map[uint32]*verbs.MR, seq uint32) {
	if buf, ok := m[seq]; ok {
		delete(m, seq)
		c.eng.releaseRndv(buf)
	}
}
