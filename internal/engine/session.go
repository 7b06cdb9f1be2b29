package engine

import (
	"errors"
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Session pacing, in virtual nanoseconds.
const (
	// DefaultSessionCallDeadline is applied to a session call when
	// neither the call nor the engine configures a deadline: a session
	// call must always fail typed, never block forever — the session's
	// whole reason to exist is reacting to those typed failures.
	DefaultSessionCallDeadline = sim.Duration(2_000_000)
	// sessionDials bounds one outage's connection attempts, sessionDialGap
	// apart, before Call gives up with ErrPeerDown. Two dials ride out a
	// lost handshake; a peer that is down stays the caller's problem (the
	// cluster's own monitor finds it and fails its shards over).
	sessionDials   = 2
	sessionDialGap = sim.Duration(50_000)
	// sessionHandshakeTimeoutNs bounds the hello exchange of one dial
	// attempt (a server that crashed mid-handshake must not wedge the
	// redial loop).
	sessionHandshakeTimeoutNs = sim.Duration(1_000_000)
)

// Session is an epoch-numbered reconnecting RPC channel above Conn, for
// idempotent services. Where a Conn is one connection — dead the moment
// its peer crashes — a Session survives peer restarts: a call failing
// with ErrPeerDown tears the connection down, re-dials (fresh QPs, fresh
// MRs, fresh rkeys against the peer's new boot epoch, a fresh closed
// breaker) and replays the call on the new connection. The old server
// may already have executed it, so a replay can execute a call twice; a
// caller whose calls are not safe to repeat uses Conn, which executes at
// most once per connection.
//
// A Session serializes its connection use with a simulation mutex
// (Conn carries one outstanding call); concurrency comes from many
// sessions, exactly as it comes from many conns.
type Session struct {
	eng    *Engine
	target *simnet.Node
	port   string
	busy   bool // declared at every dial (TryDial)

	mu    *sim.Mutex
	conn  *Conn
	epoch int64 // increments on every successful (re)connect
	down  bool  // connection known dead; next use reconnects
	shut  bool
}

// OpenSession returns a Session to target:port without dialing: the first
// Call establishes the connection through the same bounded dial loop
// every reconnect uses, under the session's own mutex. It never blocks,
// so a cache of sessions can be filled without holding a lock across a
// dial — a down peer then delays only its own callers, who get a typed
// ErrPeerDown. busy is the polling decision every dial declares to the
// server: true when the session's calls poll busily, so the server's
// dispatcher does too (within its core cap).
func (e *Engine) OpenSession(target *simnet.Node, port string, busy bool) *Session {
	return &Session{eng: e, target: target, port: port, busy: busy, mu: sim.NewMutex(e.env), down: true}
}

// Close shuts the session down: the connection is released and later
// calls fail.
func (s *Session) Close() {
	s.shut = true
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.down = true
}

// Call performs one RPC over the session. On ErrPeerDown the session
// tears the connection down, reconnects and replays the call. All other
// outcomes (success, ErrOverloaded, ErrCircuitOpen, ErrDeadline,
// validation errors) pass through unchanged — in particular a breaker
// half-open probe that fails with ErrPeerDown is what converts the
// breaker's recovery attempt into a session reconnect attempt. The
// response is the caller's, as Conn.Call's is.
func (s *Session) Call(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	return s.call(p, fn, req, opts, (*Conn).Call)
}

// Invoke is Call with the response lent, as Conn.Invoke lends it: the
// session's next call, whoever makes it, ends the loan. A caller that
// shares the session reads the response before it next yields.
func (s *Session) Invoke(p *sim.Proc, fn uint32, req []byte, opts CallOpts) ([]byte, error) {
	return s.call(p, fn, req, opts, (*Conn).Invoke)
}

// Stage is Conn.Stage for the session's connection, or nil while a call
// holds the session (its request may lie there) or the connection is down
// (the next call dials a fresh one, which copies a staged request as it
// copies any other). The loan lasts until the caller next yields.
func (s *Session) Stage() []byte {
	if s.mu.Locked() || s.down || s.conn.shared.closed {
		return nil
	}
	return s.conn.Stage()
}

// call runs one RPC through do, Conn.Call or Conn.Invoke, replaying it
// on a fresh connection for as long as the peer is found down.
func (s *Session) call(p *sim.Proc, fn uint32, req []byte, opts CallOpts,
	do func(*Conn, *sim.Proc, uint32, []byte, CallOpts) ([]byte, error)) ([]byte, error) {
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
		out, err := do(s.conn, p, fn, req, opts)
		if err == nil || !errors.Is(err, ErrPeerDown) {
			return out, err
		}
		s.teardown(p)
		s.eng.em.sessionReplays.Inc()
		if trc := s.eng.trc; trc != nil {
			trc.Instant("session", "replay", s.eng.node.ID(), s.target.ID(),
				int64(p.Now()), obs.Arg{K: "fn", V: fn}, obs.Arg{K: "epoch", V: s.epoch})
		}
	}
}

// PeerLeft reports whether the peer has closed the session's connection
// in an orderly shutdown (ensureConn's notice) that no call has met yet:
// a caller may skip a peer that said goodbye instead of paying the
// re-dial that its next call would make.
func (s *Session) PeerLeft() bool { return s.conn != nil && !s.down && s.conn.shared.closed }

// ensureConn re-establishes the connection if it is down: sessionDials
// attempts, sessionDialGap apart. Called with s.mu held.
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
	var lastErr error
	for i := 0; i < sessionDials; i++ {
		if i > 0 {
			p.Sleep(sessionDialGap)
		}
		if s.epoch > 0 {
			// Re-establishment attempt after an outage (the first dial of
			// the session's life is a connect, not a redial).
			s.eng.em.sessionRedials.Inc()
		}
		c, err := s.eng.TryDial(p, s.target, s.port, s.busy, p.Now()+sim.Time(sessionHandshakeTimeoutNs))
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
		if trc := s.eng.trc; trc != nil {
			trc.Instant("session", "connect", s.eng.node.ID(), s.target.ID(),
				int64(p.Now()), obs.Arg{K: "epoch", V: s.epoch})
		}
		return nil
	}
	return fmt.Errorf("engine: session to node %d: %d redials failed (%v): %w",
		s.target.ID(), sessionDials, lastErr, ErrPeerDown)
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
