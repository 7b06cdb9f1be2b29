package engine

import (
	"errors"
	"fmt"
	"math"

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
//	ErrCircuitOpen     — breaker is open; peer recently unhealthy
//	ErrStaleShardEpoch — shard failed over; routing state is stale
//
// Of these only the first four feed the circuit breaker: breakerObserve
// runs on transport call outcomes, where the last two are never
// produced (ErrCircuitOpen is minted by the breaker gate before the
// call, ErrStaleShardEpoch by the cluster layer above Conn).
// A draining peer tripping the breaker is intended: it steers new calls
// away from the node faster than per-call rejections would.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrPeerDown) ||
		errors.Is(err, ErrOverloaded) || errors.Is(err, ErrCircuitOpen) ||
		errors.Is(err, ErrStaleShardEpoch) || errors.Is(err, ErrDraining)
}

// rejectErr maps a typed header-only rejection kind to its sentinel.
func rejectErr(kind byte) error {
	switch kind {
	case kDrain:
		return ErrDraining
	case kBig:
		return ErrResponseTooLarge
	}
	return ErrOverloaded
}

// Retry pacing. An attempt's timer is measured, not fixed (rtoEstimator);
// retryBackoffBaseNs is its floor — comfortably above the RC retry timeout,
// so a lost message has erred its QP before a timer-driven retransmission
// probes it — and it doubles per retransmission up to retryBackoffCapNs, or
// up to the measured timer where that is longer.
const (
	retryBackoffBaseNs = 50_000  // shortest attempt timer
	retryBackoffCapNs  = 400_000 // doubling ceiling
	// serverCTSTimeoutNs bounds a server dispatcher's rendezvous-CTS
	// wait when fault injection is active, so a client that aborted
	// mid-handshake cannot wedge the dispatcher. The client's
	// retransmission (dedup) restarts the response from scratch.
	serverCTSTimeoutNs = 200_000
)

// LossDeadline is the call deadline that leaves retransmission room to
// finish on a fabric that drops a packet with probability loss, for calls
// of up to n payload bytes each way. The fabric loses a message in pieces
// no smaller than an eager slot — an eager fragment, or a whole
// WRITE-carried message, which is lost or delivered entire — and one lost
// piece costs the attempt (RC ordering: what follows a gap is discarded),
// so counting slots bounds the pieces from above and an attempt is
// answered with probability at least
// q = (1-loss)^pieces, request and response counted: 98 % for a 512 B echo
// at 1 % loss, 7 % for a 512 KB one sent eagerly. Once backed off, attempts
// leave retryBackoffCapNs apart; the deadline affords as many of them as
// leave one call in a million unanswered. At ≤ 4 KB and 1 % that is under
// 2 ms; at 512 KB, 71 ms (the slowest such call in Fig. 4's sweep takes 11).
func LossDeadline(n int, loss float64) sim.Duration {
	pieces := 2 * (n/eagerSlotSize + 1)
	q := math.Pow(1-loss, float64(pieces))
	d := math.Log(1e-6) / math.Log1p(-q) * retryBackoffCapNs
	// Past maxLossDeadline (q → 0: +Inf) no run finishes anyway; stopping
	// there keeps now+deadline inside sim.Time.
	const maxLossDeadline = sim.Duration(1) << 50
	if d >= float64(maxLossDeadline) {
		return maxLossDeadline
	}
	return sim.Duration(d)
}

// rtoEstimator is a connection's measure of how long a request that has
// been delivered waits for its response, in the shape of RFC 6298: a
// smoothed response time and a smoothed mean deviation, the timer their
// sum with the deviation taken four times — floored at retryBackoffBaseNs,
// so a connection whose responses come back well inside the base timer
// keeps exactly that, while one whose handler takes 200 µs waits for about
// that long plus four deviations before it concludes anything was lost.
type rtoEstimator struct {
	srtt, rttvar sim.Duration
	sampled      bool
	// retained is a guess kept until the next sample: the timer the last
	// call that was re-sent would have needed to be sent once (retain). A
	// connection whose every call is re-sent never yields a sample, and
	// would otherwise start each call from the same too-short timer for
	// good (the second half of Karn's algorithm).
	retained sim.Duration
	doubted  bool // the last call was re-sent blind; no sample since
}

// observe feeds one response time. Only calls answered on their first
// transmission are observed (Karn's rule: a response that follows a
// retransmission cannot be attributed to either copy of the request), and
// only genuine responses: a typed rejection is minted before admission and
// says nothing about how long an admitted request is served for.
func (e *rtoEstimator) observe(rtt sim.Duration) {
	rtt = max(rtt, 0)
	e.retained, e.doubted = 0, false
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = rtt, rtt/2, true
		return
	}
	e.rttvar += ((e.srtt - rtt).Abs() - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// retain is observe for a call that was re-sent and took elapsed from its
// first copy that may have arrived to its response. That is only an upper
// bound of the response time, so it is no sample; but a timer below it is
// known to fire on the next call like this one, so until a sample arrives
// calls get the first of the doublings from timer — the one in force when
// the response came — that is no shorter: it may be one doubling short of
// a 200 µs handler, or capped at a fraction of a 1 ms one. Under loss
// elapsed is inflated by the recovery itself, so a guess is made with
// reserve: not from one slow call among answered ones (a loss, more likely
// than a change of pace: the second in a row is believed), two doublings at
// most, and never built upon — a call that started from a guess leaves it
// as it is.
func (e *rtoEstimator) retain(timer, elapsed sim.Duration) {
	if e.retained != 0 {
		return
	}
	if e.sampled && !e.doubted {
		e.doubted = true
		return
	}
	for limit := 4 * timer; timer < elapsed && timer < limit; {
		timer *= 2
	}
	e.retained = timer
}

// timer is the timer of the first attempt of a call with budget to spend:
// the measured one, or the guess that stands in for it — which may claim
// no more than a quarter of the budget, so that being wrong about a slow
// server costs a call that loses its response one long wait, not its
// deadline.
func (e *rtoEstimator) timer(budget sim.Duration) sim.Duration {
	measured := max(retryBackoffBaseNs, e.srtt+4*e.rttvar)
	return max(measured, min(e.retained, budget/4))
}

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
	c.eng.em.qpRecoveries.Inc()
}

// armWake schedules a signal fire at the given virtual time so a bounded
// wait loop gets a chance to observe its timeout; the wait stops the
// returned timer when it ends, so a wait that was answered leaves nothing
// behind to wake a later one. A zero bound (an unbounded wait) arms
// nothing.
func (c *Conn) armWake(until sim.Time) sim.Timer {
	if until > c.eng.env.Now() {
		return c.eng.env.AtTimer(until, c.wake)
	}
	return sim.Timer{}
}

// expired reports whether a bound has passed; zero never expires.
func expired(now, until sim.Time) bool { return until > 0 && now >= until }

// attempt is the retransmission state of the deadline-bounded call a
// connection has in flight.
//
// The timer of a call's first attempt is the connection's measured one
// (rtoEstimator); each retransmission doubles it. It bounds every wait of
// the attempt separately, from the moment that wait starts: the wait for
// a credit or for the rendezvous grant inside the send, and the wait for
// the response — each behind the silence the message's own length explains
// (grantTime, delivery). A sender that is making progress is therefore
// never timed out, and a message that takes longer to deliver than the
// timer runs is sent once.
//
// A wait also ends on evidence: a failed completion of a work request the
// attempt posted (a fetch loop's own poll READs aside, which it simply
// repeats) means the request, or a handshake message the response depends
// on, never arrived, and sleeping on towards the timer would learn nothing
// more. The first retransmission of a call then leaves at once — at the RC
// retry timeout instead of at the timer. Later ones are paced by the fixed
// schedule every call used to follow (sched: 50 µs, doubling to 400 µs):
// evidence or timer, retransmission m never leaves before that schedule
// would have sent it, so a dead link is probed no more often than it was.
type attempt struct {
	timer sim.Duration // longest wait for the peer; zero outside a deadline-bounded call
	ceil  sim.Duration // doubling stops here
	n     int          // attempts begun
	since sim.Time     // when the first copy of the request that may have arrived was sent
	blind bool         // a copy since then was sent because the timer ran out, not on evidence

	sched sim.Time     // when the fixed schedule would end the current attempt
	step  sim.Duration // that schedule's next interval

	faultFrom uint64 // failed work requests numbered so or higher are evidence; zero: none is
	faulted   bool   // evidence seen
}

// beginAttempt opens the call's next attempt: it paces and accounts for a
// retransmission, backs the timer off and cycles the QP out of the error
// state. It reports false when the deadline passed before the
// retransmission was due.
func (c *Conn) beginAttempt(p *sim.Proc, seq uint32, until sim.Time) bool {
	a, eng := &c.att, c.eng
	if a.n == 0 {
		a.timer, a.since, a.blind = 0, p.Now(), false
		a.sched, a.step = p.Now(), retryBackoffBaseNs
		if until != 0 {
			a.timer = c.rto.timer(sim.Duration(until - p.Now()))
			a.ceil = max(retryBackoffCapNs, a.timer)
		}
	} else {
		cause := "timer"
		if a.faulted {
			cause = "qp_error"
			if now := p.Now(); a.n > 1 && now < a.sched {
				p.Sleep(sim.Duration(min(a.sched, until) - now))
				if expired(p.Now(), until) {
					return false
				}
			}
			// Every earlier copy is known lost: whatever answers, answers
			// this one or a later.
			a.since, a.blind = p.Now(), false
		} else {
			a.blind = true
		}
		eng.em.retries.Inc()
		if trc := eng.trc; trc != nil {
			trc.Instant("rpc", "retry", eng.node.ID(), c.id, int64(p.Now()),
				obs.Arg{K: "seq", V: seq}, obs.Arg{K: "attempt", V: a.n}, obs.Arg{K: "cause", V: cause})
		}
		a.timer = min(2*a.timer, a.ceil)
	}
	a.n++
	a.sched += sim.Time(a.step)
	a.step = min(2*a.step, retryBackoffCapNs)
	c.recoverQP(p)
	a.faulted, a.faultFrom = false, 0
	if until != 0 {
		a.faultFrom = c.nextWRID + 1
		eng.em.rto.Observe(float64(a.timer))
	}
	return true
}

// answered feeds the estimator from the call that has just been answered,
// arrived being when its request was in the peer's memory. A call that was
// never re-sent yields a sample; one that was re-sent blind, a guess; one
// that was re-sent only on evidence, nothing — its timer was never at
// fault.
func (c *Conn) answered(now, arrived sim.Time) {
	switch a := &c.att; {
	case a.timer == 0: // no deadline: nothing is measured
	case a.n == 1:
		c.rto.observe(sim.Duration(now - arrived))
	case a.blind:
		c.rto.retain(a.timer, sim.Duration(now-a.since))
	}
}

// waitUntil bounds a wait for the peer that starts at from and must end by
// until: inside an attempt by the attempt's timer (but not before the fixed
// schedule would have ended the attempt, which matters after a first
// retransmission that left early), otherwise — a server's wait, bounded
// only under fault injection — by until alone.
func (c *Conn) waitUntil(from, until sim.Time) sim.Time {
	a := &c.att
	if until == 0 || a.timer == 0 {
		return until
	}
	return min(max(from+sim.Time(a.timer), a.sched), until)
}

// waitOver reports whether a bounded wait should give up: its bound has
// passed, or the attempt it belongs to is lost (attempt.faulted).
func (c *Conn) waitOver(now, until sim.Time) bool {
	return until > 0 && (now >= until || c.att.faulted)
}

// noteFault records a failed send-side completion. It counts as evidence
// against the attempt in flight only if that attempt posted the work
// request: failures of earlier attempts' requests (whatever was posted
// behind the lost message before the gap opened, say) arrive late and
// prove nothing new.
func (c *Conn) noteFault(wc verbs.WC) {
	if a := &c.att; a.faultFrom != 0 && wc.Op != verbs.OpRecv && wc.WRID >= a.faultFrom {
		a.faulted = true
	}
}

// The size terms: how long a healthy peer may stay silent because of the
// message's length alone. A wait's timer starts only behind them, so a
// long message is never taken for a lost one.

// departure is how long the NIC takes to put n posted payload bytes on the
// wire, reckoned store-and-forward: the whole DMA fetch, then the
// serialisation. A message of one packet is in the peer's memory about
// then; a longer one earlier, because the NIC overlaps fetch, wire and
// the peer's receive side packet by packet (verbs.PathMTU). It stays an
// upper bound on purpose: a wait's timer starts behind it.
func (c *Conn) departure(n int) sim.Duration {
	return sim.Duration(c.eng.dev.CostModel().DMATime(n)) + c.eng.node.TX.SerializationTime(n)
}

// grantTime is how long the peer may take to have a buffer ready for an
// n-byte rendezvous: registering one of that size class, if its pool has
// none (a restarted node's never has). It registers once: a retransmitted
// RTS finds the grant standing.
func (c *Conn) grantTime(n int) sim.Duration {
	if c.att.n > 1 {
		return 0
	}
	return sim.Duration(c.eng.dev.CostModel().RegisterTime(sizeClass(n + hdrSize)))
}

// delivery is how long an n-byte request sent by leg l may take to be in
// the peer's memory once this end has posted it. Write-RNDV has waited
// for its grant by then (waitCTSUntil); Read-RNDV's peer finds its buffer
// only now, and pulls the payload with one READ: its request crosses,
// then this end's NIC streams the payload back as it fetches it. Two
// departures bound that with room to spare.
func (c *Conn) delivery(l leg, n int) sim.Duration {
	if l == legReadRNDV {
		return c.grantTime(n) + 2*c.departure(n)
	}
	return c.departure(n)
}

// callReliable runs the deadline/retransmit state machine around one
// request/response call: send the request (seq-tagged), wait for the
// response as long as the attempt's timer allows (attempt), and
// retransmit until the response arrives or the deadline expires. The
// server deduplicates by seq, so a retransmitted request is executed at
// most once; stale duplicate responses are discarded by seq filtering.
// until zero means no deadline, like every *Until helper below it: the
// first attempt waits forever, no wake is armed and nothing is measured —
// on a lossless fabric that is exactly send, then wait for the response.
func (c *Conn) callReliable(p *sim.Proc, h hdr, req []byte, respProto Protocol, busy bool, until sim.Time) ([]byte, error) {
	c.att.n = 0
	reqLeg := h.proto.row().req
	for {
		if !c.beginAttempt(p, h.seq, until) {
			return nil, c.failCall(h.seq)
		}
		if c.send(p, reqLeg, h, req, busy, until) {
			var arrived, respUntil sim.Time
			if until != 0 {
				arrived = p.Now() + sim.Time(c.delivery(reqLeg, len(req)))
				respUntil = c.waitUntil(arrived, until)
			}
			var out []byte
			var ok bool
			var err error
			if respProto.row().resp == legFetch {
				out, ok, err = c.fetchUntil(p, respProto, busy, respUntil)
			} else {
				out, ok, err = c.awaitResponse(p, h.seq, busy, respUntil)
			}
			if err != nil {
				// Typed server rejection (shed): terminal — retrying into
				// an overloaded server immediately only feeds the overload.
				c.abortCall(h.seq)
				return nil, err
			}
			if ok {
				c.answered(p.Now(), arrived)
				return out, nil
			}
		} else if out, ok, err := c.pollResponse(p, h.seq, busy); ok || err != nil {
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
			c.answered(p.Now(), 0)
			return out, nil
		}
		if expired(p.Now(), until) {
			return nil, c.failCall(h.seq)
		}
	}
}

// failCall records a deadline expiry, reclaims the call's per-seq
// control state, and maps the failure to its typed error.
func (c *Conn) failCall(seq uint32) error {
	c.abortCall(seq)
	c.eng.em.deadlineExceeded.Inc()
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

// awaitResponse pumps completions until the response for seq arrives, the
// bound expires (zero = never) or the attempt is lost (waitOver). Responses for other seqs are stale
// duplicates from earlier attempts (or earlier calls) and are discarded
// — the dedup guarantee means their payloads equal what the original
// call already returned. A rejection arrival for seq is the server's typed
// answer and returns its error (rejectErr).
func (c *Conn) awaitResponse(p *sim.Proc, seq uint32, busy bool, until sim.Time) ([]byte, bool, error) {
	c.enterWait(busy)
	defer c.exitWait()
	defer c.armWake(until).Stop()
	for {
		for c.respQueue.Len() > 0 {
			a := c.respQueue.Pop()
			if a.Seq != seq {
				c.endLoan(a.Payload) // a stale duplicate: nobody will read it
				continue
			}
			if a.Kind == kResp {
				c.chargeDetect(p, busy)
				c.eng.em.bytesRecvd.Add(int64(len(a.Payload)))
				return a.Payload, true, nil
			}
			if rejection(a.Kind) {
				c.chargeDetect(p, busy)
				return nil, false, rejectErr(a.Kind)
			}
		}
		if c.waitOver(p.Now(), until) {
			return nil, false, nil
		}
		if c.pumpCompletions(p) > 0 {
			continue
		}
		c.sig.Wait(p)
	}
}

// pollResponse scans the queued arrivals for the response (or shed
// rejection) to seq without blocking, consuming it when present.
// Non-matching entries are left for awaitResponse's drain to discard.
func (c *Conn) pollResponse(p *sim.Proc, seq uint32, busy bool) ([]byte, bool, error) {
	for i := 0; i < c.respQueue.Len(); i++ {
		a := c.respQueue.At(i)
		if a.Seq != seq || (a.Kind != kResp && !rejection(a.Kind)) {
			continue
		}
		c.respQueue.RemoveAt(i)
		c.chargeDetect(p, busy)
		if rejection(a.Kind) {
			return nil, false, rejectErr(a.Kind)
		}
		c.eng.em.bytesRecvd.Add(int64(len(a.Payload)))
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
