package engine

import (
	"errors"
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// ErrSessionReset is returned by Session.Call when a reconnect
// interrupted a non-idempotent call. The request may or may not have
// executed on the server (the old connection died before the response
// arrived), and replaying it on the fresh connection could execute it
// twice — only the application knows whether that is safe, so it must
// opt in per call with CallOpts.Idempotent.
var ErrSessionReset = errors.New("engine: session reset (call may have executed)")

// Session defaults, in virtual nanoseconds.
const (
	// DefaultSessionCallDeadline is applied to a session call when
	// neither the call nor the engine configures a deadline: a session
	// call must always fail typed, never block forever — the session's
	// whole reason to exist is reacting to those typed failures.
	DefaultSessionCallDeadline = sim.Duration(2_000_000)
	// keepaliveDeadline bounds one keepalive probe.
	keepaliveDeadline = sim.Duration(500_000)
	// DefaultRedialBackoff paces reconnect attempts (doubling, capped).
	DefaultRedialBackoff = sim.Duration(100_000)
	redialBackoffCapNs   = sim.Duration(5_000_000)
	// DefaultMaxRedials bounds one outage's reconnect attempts before
	// Call gives up with ErrPeerDown.
	DefaultMaxRedials = 10
	// sessionHandshakeTimeoutNs bounds the hello exchange of one dial
	// attempt (a server that crashed mid-handshake must not wedge the
	// redial loop).
	sessionHandshakeTimeoutNs = sim.Duration(1_000_000)
)

// SessionConfig tunes a Session. The zero value gets the defaults
// above with keepalive probing disabled.
type SessionConfig struct {
	// KeepaliveInterval spaces idle-session liveness probes (reserved
	// function FnKeepalive). Zero disables the prober; calls still
	// detect peer death through their own typed failures.
	KeepaliveInterval sim.Duration
	// RedialBackoff is the initial wait between reconnect attempts,
	// doubling up to an internal cap (default DefaultRedialBackoff).
	RedialBackoff sim.Duration
	// MaxRedials bounds reconnect attempts per outage (default
	// DefaultMaxRedials).
	MaxRedials int
}

// SessionStats counts a session's lifecycle events.
type SessionStats struct {
	Connects   int64 // successful dials (first connect included)
	Replays    int64 // idempotent calls replayed on a fresh connection
	Resets     int64 // non-idempotent calls failed with ErrSessionReset
	Probes     int64 // keepalive probes issued
	DrainHolds int64 // probe holds entered on a peer's drain announcement
}

// Session is an epoch-numbered reconnecting RPC channel above Conn.
// Where a Conn is one connection — dead the moment its peer crashes —
// a Session survives peer restarts: a call failing with ErrPeerDown
// tears the connection down and re-dials (fresh QPs, fresh MRs, fresh
// rkeys against the peer's new boot epoch, a fresh closed breaker),
// replaying the interrupted call if it was marked Idempotent and
// failing it with ErrSessionReset otherwise. An optional keepalive
// prober detects peer death on idle sessions and re-establishes
// eagerly so the next call finds a live connection.
//
// A Session serializes its connection use with a simulation mutex
// (Conn carries one outstanding call); concurrency comes from many
// sessions, exactly as it comes from many conns.
type Session struct {
	eng    *Engine
	target *simnet.Node
	port   string
	cfg    SessionConfig

	mu    *sim.Mutex
	conn  *Conn
	epoch int64 // increments on every successful (re)connect
	down  bool  // connection known dead; next use reconnects
	shut  bool

	stats SessionStats
}

// NewSession dials target:port and wraps the connection in a Session.
// The initial dial runs through the same bounded redial loop as
// reconnection, so dialing a currently-down node fails typed with
// ErrPeerDown instead of blocking.
func (e *Engine) NewSession(p *sim.Proc, target *simnet.Node, port string, cfg SessionConfig) (*Session, error) {
	s := &Session{eng: e, target: target, port: port, cfg: cfg, mu: sim.NewMutex(e.env)}
	s.mu.Lock(p)
	err := s.ensureConn(p)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.startKeepalive()
	return s, nil
}

// OpenSession returns a Session to target:port without dialing: the first
// Call (or keepalive tick) establishes the connection through the same
// bounded redial loop every reconnect uses, under the session's own
// mutex. It never blocks, so a cache of sessions can be filled without
// holding a lock across a dial — a down peer then delays only its own
// callers, who get the typed ErrPeerDown a failed NewSession returns.
func (e *Engine) OpenSession(target *simnet.Node, port string, cfg SessionConfig) *Session {
	s := &Session{eng: e, target: target, port: port, cfg: cfg, mu: sim.NewMutex(e.env), down: true}
	s.startKeepalive()
	return s
}

// Epoch returns the session epoch: how many times the session has
// (re)connected. The first successful dial is epoch 1.
func (s *Session) Epoch() int64 { return s.epoch }

// Stats returns the session's lifecycle counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Conn exposes the current connection (nil between teardown and the
// next reconnect) for inspection.
func (s *Session) Conn() *Conn { return s.conn }

// Close shuts the session down: the keepalive prober stops at its next
// tick and the connection is released.
func (s *Session) Close() {
	s.shut = true
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.down = true
}

// Call performs one RPC over the session. On ErrPeerDown the session
// tears the connection down and reconnects; the call is then replayed
// if opts.Idempotent, and failed with ErrSessionReset otherwise. All
// other outcomes (success, ErrOverloaded, ErrCircuitOpen, ErrDeadline,
// validation errors) pass through unchanged — in particular a breaker
// half-open probe that fails with ErrPeerDown is what converts the
// breaker's recovery attempt into a session reconnect attempt.
func (s *Session) Call(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	if s.shut {
		return nil, fmt.Errorf("engine: session to node %d: closed", s.target.ID())
	}
	if opts.Deadline == 0 && s.eng.cfg.CallDeadline == 0 {
		// A session call must always fail typed rather than block
		// forever on a dead peer.
		opts.Deadline = DefaultSessionCallDeadline
	}
	s.mu.Lock(p)
	defer s.mu.Unlock()
	for {
		if err := s.ensureConn(p); err != nil {
			return nil, err
		}
		out, err := s.conn.Call(p, fn, req, opts)
		if err == nil || !errors.Is(err, ErrPeerDown) {
			return out, err
		}
		s.teardown(p)
		if !opts.Idempotent {
			s.stats.Resets++
			return nil, fmt.Errorf("engine: session to node %d epoch %d: %v: %w",
				s.target.ID(), s.epoch, err, ErrSessionReset)
		}
		s.stats.Replays++
		s.eng.em.sessionReplays.Inc()
		if trc := s.eng.trc; trc != nil {
			trc.Instant("session", "replay", s.eng.node.ID(), s.target.ID(),
				int64(p.Now()), obs.Arg{K: "fn", V: fn}, obs.Arg{K: "epoch", V: s.epoch})
		}
	}
}

// ensureConn re-establishes the connection if it is down, pacing
// attempts with doubling backoff. Called with s.mu held.
func (s *Session) ensureConn(p *sim.Proc) error {
	if s.conn != nil && !s.down && s.conn.shared.closed {
		// The peer closed this connection in an orderly shutdown (a
		// graceful stop releases its engine before the machine goes down):
		// re-dial now rather than discover it by a call deadline.
		s.teardown(p)
	}
	if s.conn != nil && !s.down {
		return nil
	}
	backoff := s.cfg.RedialBackoff
	if backoff <= 0 {
		backoff = DefaultRedialBackoff
	}
	max := s.cfg.MaxRedials
	if max <= 0 {
		max = DefaultMaxRedials
	}
	var lastErr error
	for i := 0; i < max; i++ {
		if i > 0 {
			p.Sleep(backoff)
			backoff *= 2
			if backoff > redialBackoffCapNs {
				backoff = redialBackoffCapNs
			}
		}
		if s.epoch > 0 {
			// Re-establishment attempt after an outage (the first dial of
			// the session's life is a connect, not a redial).
			s.eng.em.sessionRedials.Inc()
		}
		c, err := s.eng.TryDial(p, s.target, s.port, p.Now()+sim.Time(sessionHandshakeTimeoutNs))
		if err != nil {
			lastErr = err
			continue
		}
		if s.epoch > 0 {
			s.eng.em.sessionFailovers.Inc()
		}
		s.conn = c
		s.down = false
		s.epoch++
		s.stats.Connects++
		if trc := s.eng.trc; trc != nil {
			trc.Instant("session", "connect", s.eng.node.ID(), s.target.ID(),
				int64(p.Now()), obs.Arg{K: "epoch", V: s.epoch})
		}
		return nil
	}
	return fmt.Errorf("engine: session to node %d: %d redials failed (%v): %w",
		s.target.ID(), max, lastErr, ErrPeerDown)
}

// teardown discards a connection whose peer is unreachable. Called
// with s.mu held.
func (s *Session) teardown(p *sim.Proc) {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.down = true
	if trc := s.eng.trc; trc != nil {
		trc.Instant("session", "teardown", s.eng.node.ID(), s.target.ID(),
			int64(p.Now()), obs.Arg{K: "epoch", V: s.epoch})
	}
}

// drainHoldProbes is how many probe intervals the prober stays quiet
// after a probe is answered with the typed ErrDraining announcement: no
// probes and no eager redials until the hold expires, so a rolling
// restart does not trigger session_redials storms against a node that
// said it is going away on purpose. Long enough to cover a typical
// drain-stop-restart cycle, short enough that the prober re-verifies
// liveness soon after the peer should be back.
const drainHoldProbes = 8

// keepaliveFailThreshold is how many consecutive deadline-expired
// probes count as a dead path. One expiry can be a transient drop; a
// streak means the response direction is gone even though our sends
// still complete — the asymmetric-partition case, where the QP never
// errors and ErrPeerDown is never produced.
const keepaliveFailThreshold = 2

// startKeepalive launches the liveness prober as a node-owned process
// (it dies with the client node, like the session's user would). Each
// tick sends one reserved-function probe when the session is idle. A
// probe failing with ErrPeerDown tears the connection down at once;
// keepaliveFailThreshold consecutive ErrDeadline expiries do the same
// (a silent one-way cut never errors the QP, so without this an idle
// session would stay wedged on a half-dead link forever). Either way
// the prober immediately attempts to re-establish, so an idle session
// is usually live again before its next real call. A probe answered
// with the typed ErrDraining announcement instead silences the prober
// for drainHoldProbes intervals.
func (s *Session) startKeepalive() {
	ivl := s.cfg.KeepaliveInterval
	if ivl <= 0 {
		return
	}
	hold := ivl * drainHoldProbes
	s.eng.node.Spawn(fmt.Sprintf("session-ka-%d-%s", s.target.ID(), s.port), func(p *sim.Proc) {
		expired := 0 // consecutive probes that died by deadline
		var holdUntil sim.Time
		for {
			p.Sleep(ivl)
			if s.shut {
				return
			}
			if p.Now() < holdUntil {
				continue // peer announced draining; stay quiet
			}
			if !s.mu.TryLock() {
				continue // a call is in flight; it is its own liveness probe
			}
			if s.conn != nil && !s.down {
				s.stats.Probes++
				_, err := s.conn.Call(p, FnKeepalive, nil, CallOpts{Proto: EagerSendRecv, Deadline: keepaliveDeadline})
				switch {
				case err == nil:
					expired = 0
				case errors.Is(err, ErrPeerDown):
					expired = 0
					s.teardown(p)
				case errors.Is(err, ErrDraining):
					// The peer fenced the probe: it is draining for a planned
					// restart. Hold off probes AND eager redials — the session
					// stays formally up, and the first post-hold tick (or a
					// real call's typed failure) re-verifies the path.
					expired = 0
					holdUntil = p.Now() + sim.Time(hold)
					s.stats.DrainHolds++
					if trc := s.eng.trc; trc != nil {
						trc.Instant("session", "drain_hold", s.eng.node.ID(), s.target.ID(),
							int64(p.Now()), obs.Arg{K: "epoch", V: s.epoch})
					}
				case errors.Is(err, ErrDeadline):
					if expired++; expired >= keepaliveFailThreshold {
						expired = 0
						s.teardown(p)
					}
				default:
					// ErrOverloaded means the peer answered (alive, just
					// busy); ErrCircuitOpen means our own breaker is gating.
					// Neither says the path is dead.
					expired = 0
				}
			}
			if s.down && !s.shut {
				// Eager re-establishment; failure leaves the session down
				// for the next tick (or the next call) to retry.
				_ = s.ensureConn(p) //nolint:errcheck
			}
			s.mu.Unlock()
		}
	})
}
