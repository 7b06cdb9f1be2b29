package engine

import (
	"errors"
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// Handler processes one request payload and returns the response payload.
// It runs on the per-connection dispatcher process; CPU work must be
// charged explicitly via the process (e.g. node.CPU.Compute).
//
// Payload ownership: req is lent for the duration of the call (an arena
// buffer, or the direct region itself: Conn.direct). The dispatcher owns
// it and returns it on every path — served, shed, drain-fenced or
// retransmitted — and a later delivery overwrites it, so a handler that
// keeps any part of req past its return must copy. Returning req, or any
// cut of it (req[4:], req[:8], req[0:8:8]), as the response is fine: the
// connection's dedup entry holds that buffer for as long as it caches the
// response, and recycles it only when the next served request replaces the
// entry. A
// handler that serializes its response may do so straight into the
// connection's staging region (ResponseStage) and return that; the engine
// then sends it from where it lies.
type Handler func(p *sim.Proc, fn uint32, req []byte) []byte

// ErrOverloaded is the typed failure a client receives when the server's
// admission control shed its request. The rejection is header-only and
// costs the server ~no CPU — the point of load shedding is that saying
// "no" must be far cheaper than saying "yes".
var ErrOverloaded = errors.New("engine: server overloaded (request shed)")

// ErrResponseTooLarge is the typed failure a client receives when the
// handler's response exceeds MaxMsgSize, which no response channel can
// carry. The handler ran once; a retransmission gets the same answer.
var ErrResponseTooLarge = errors.New("engine: response exceeds MaxMsgSize")

// AdmitPolicy selects what a server does with a request that arrives
// while AdmitLimit handlers are already executing.
type AdmitPolicy uint8

const (
	// AdmitBlock queues the dispatcher FIFO until a handler slot frees.
	// Nothing is shed; queueing delay is unbounded under sustained
	// overload (the client's deadline is the only backstop).
	AdmitBlock AdmitPolicy = iota
	// AdmitShedNewest rejects the arriving request immediately when all
	// slots are busy. Requests already queued keep their accumulated
	// waiting investment — the classic tail-drop policy.
	AdmitShedNewest
)

func (ap AdmitPolicy) String() string {
	switch ap {
	case AdmitBlock:
		return "block"
	case AdmitShedNewest:
		return "shed-newest"
	}
	return "unknown"
}

// ParseAdmitPolicy maps the cmd-line spellings to a policy.
func ParseAdmitPolicy(s string) (AdmitPolicy, error) {
	switch s {
	case "block":
		return AdmitBlock, nil
	case "newest", "shed-newest":
		return AdmitShedNewest, nil
	}
	return 0, fmt.Errorf("unknown admission policy %q (want block|newest)", s)
}

// admitQueue bounds the number of concurrently executing handlers
// server-wide. Dispatchers call acquire before running the handler and
// release after the response is sent; each waiter parks on its own signal
// so a release wakes exactly one of them, FIFO.
type admitQueue struct {
	env     *sim.Env
	limit   int
	policy  AdmitPolicy
	running int
	waiting sim.FIFO[*sim.Signal]
}

func newAdmitQueue(env *sim.Env, limit int, policy AdmitPolicy) *admitQueue {
	return &admitQueue{env: env, limit: limit, policy: policy}
}

// acquire claims a handler slot, waiting per the policy. False means the
// request was shed and must be answered with ErrOverloaded.
func (q *admitQueue) acquire(p *sim.Proc) bool {
	if q.running < q.limit {
		q.running++
		return true
	}
	if q.policy == AdmitShedNewest {
		return false
	}
	sig := sim.NewSignal(q.env)
	q.waiting.Push(sig)
	sig.Wait(p) // fired once, by the release that hands this waiter its slot
	return true
}

// release frees a handler slot, or hands it to the longest waiter.
func (q *admitQueue) release() {
	if q.waiting.Len() == 0 {
		q.running--
		return
	}
	q.waiting.Pop().Fire()
}

// Server accepts engine connections on a port and runs one dispatcher
// process per connection — the threaded-server model the paper's
// evaluation uses.
type Server struct {
	eng     *Engine
	ln      *Listener
	handler Handler

	// Busy selects busy polling for every dispatcher's waits. Without it a
	// connection is dispatched as its dialer declared (grantBusy), and
	// event-driven when nothing was declared. With many connections and
	// busy polling, dispatchers oversubscribe the node's cores — the
	// Figure 5 collapse.
	Busy bool
	// NUMABind pins dispatchers NIC-locally (no remote-socket penalty on
	// copies/compute).
	NUMABind bool

	// AdmitLimit bounds concurrently executing handlers server-wide.
	// Zero — the default — disables admission control entirely (the
	// pre-admission behaviour: every dispatcher runs its handler as soon
	// as the request arrives). Set it before the first request arrives.
	AdmitLimit int
	// Admit selects the over-limit policy (default AdmitBlock).
	Admit AdmitPolicy
	// Drained counts requests fenced by the graceful-drain gate (the
	// node's drain report reads it; served and shed requests are obs
	// counters: engine.served.*, engine.shed.*).
	Drained int64

	conns []*Conn
	adm   *admitQueue
	// busyGrants counts the open connections granted a busy dispatcher.
	busyGrants int

	// draining fences new requests with the typed kDrain rejection while
	// in-flight handlers run to completion (graceful drain, DESIGN.md §17).
	draining bool
	// active counts dispatchers currently executing a handler (admitted,
	// not merely queued — queued waiters are counted via adm.waiting).
	active int
}

// Serve starts accepting connections for the named port, dispatching each
// on its own simulation process. The accept loop and dispatchers are
// node-owned processes: they die (running their deferred cleanup) when
// the node crashes, like any software on a machine losing power.
func (e *Engine) Serve(port string, h Handler) *Server {
	s := &Server{eng: e, ln: e.Listen(port), handler: h}
	e.node.Spawn(fmt.Sprintf("engsrv-%d-%s", e.node.ID(), port), s.acceptLoop)
	return s
}

func (s *Server) acceptLoop(p *sim.Proc) {
	for i := 0; ; i++ {
		c := s.ln.Accept(p)
		c.SetNUMABound(s.NUMABind)
		if c.peerBusy {
			s.grantBusy(c)
		}
		s.conns = append(s.conns, c)
		s.eng.node.Spawn(fmt.Sprintf("%s-disp%d", p.Name(), i), func(dp *sim.Proc) {
			s.dispatch(dp, c)
		})
	}
}

// grantBusy answers a dialer that declared busy polling: its connection
// gets a busy dispatcher unless Cores() connections already hold one —
// the Figure 5 guard trdma.NewServer applies through the concurrency
// hint, since one spinning dispatcher per connection past the core count
// starves the handlers. A refused connection is event-dispatched. The
// grant goes back when either endpoint closes the connection; a dialer
// that crashes never closes, so its grant is held, as its spinning
// poller would be, until the server's engine closes.
func (s *Server) grantBusy(c *Conn) {
	if s.busyGrants >= s.eng.Cores() {
		c.peerBusy = false
		s.eng.em.busyDispatchRefused.Inc()
		return
	}
	s.busyGrants++
	s.eng.em.busyDispatch.Inc()
	c.shared.release = func() {
		s.busyGrants--
		c.peerBusy = false
		if !s.Busy {
			c.exitWait() // stop the parked dispatcher's spin now
		}
	}
}

func (s *Server) dispatch(p *sim.Proc, c *Conn) {
	eng := s.eng
	p.Value = c // ResponseStage finds the connection here
	for {
		// Read per iteration (not hoisted): Busy is a plain field a caller
		// sets after Serve has returned, which may be after this
		// dispatcher started, and a closing connection returns its grant.
		busy := s.Busy || c.peerBusy
		a := c.nextArrival(p, busy)
		if a.Kind != kReq {
			continue
		}
		if c.isDup(a.Seq) {
			// Retransmitted request: the response (or the tail of the
			// original delivery) was lost. Resend the cached response
			// without re-executing the handler — at-most-once execution,
			// idempotent from the application's point of view. The copy
			// that just arrived is not needed: the entry holds the original.
			c.discard(a.Payload)
			eng.em.dupRequests.Inc()
			if c.dedup.arr.RespProto != ProtoAuto {
				c.respond(p, c.dedup.arr, c.dedup.resp, busy)
			}
			continue
		}
		if a.dup {
			// A retransmission that a later request has overtaken (an
			// RNR-NAKed SEND is re-delivered behind the SENDs that followed
			// it): by the time it is dispatched the cache holds that later
			// request's response. Its caller has given up on it — a
			// connection has one call outstanding — and it has no payload
			// to execute.
			continue
		}
		if s.draining {
			// Graceful-drain fence: new work is rejected typed and
			// immediately (after dedup, so retransmissions of already
			// served requests still get their cached responses). No dedup
			// entry is recorded — the handler never ran, and a client that
			// re-routes and later retries here post-restart deserves a
			// fresh execution.
			s.Drained++
			c.discard(a.Payload)
			if trc := eng.trc; trc != nil {
				trc.Instant("rpc", "drained", eng.node.ID(), c.id,
					int64(p.Now()), obs.Arg{K: "fn", V: a.Fn}, obs.Arg{K: "seq", V: a.Seq})
			}
			if a.RespProto != ProtoAuto {
				c.sendReject(p, a, kDrain)
			}
			continue
		}
		acquired := false
		if s.AdmitLimit > 0 {
			if s.adm == nil {
				s.adm = newAdmitQueue(eng.env, s.AdmitLimit, s.Admit)
			}
			if !s.adm.acquire(p) {
				// Shed. The RECV this request consumed was already reposted
				// by the pump (before the message was interpreted), so no
				// repost bookkeeping happens here — and no dedup entry is
				// recorded: the handler never ran, and a retransmission of
				// this seq deserves a fresh admission attempt.
				c.discard(a.Payload)
				if int(a.Proto) < nProtocols {
					eng.em.shed[a.Proto].Inc()
				}
				if trc := eng.trc; trc != nil {
					trc.Instant("rpc", "shed."+a.Proto.String(), eng.node.ID(), c.id,
						int64(p.Now()), obs.Arg{K: "seq", V: a.Seq})
				}
				if a.RespProto != ProtoAuto {
					c.sendReject(p, a, kErr)
				}
				continue
			}
			acquired = true
		}
		s.active++
		start := int64(p.Now())
		resp := s.handler(p, a.Fn, a.Payload)
		if len(resp) > eng.cfg.MaxMsgSize {
			// No response channel holds it: the typed refusal takes its
			// place, and the dedup entry keeps the refusal (Kind kBig).
			eng.em.oversizeResps.Inc()
			a.Kind, resp = kBig, nil
		}
		resp, own := c.settle(a, resp)
		if a.RespProto != ProtoAuto { // ProtoAuto marks a oneway request
			c.respond(p, a, resp, busy)
		}
		s.active--
		if acquired {
			s.adm.release()
		}
		if int(a.Proto) < nProtocols {
			eng.em.served[a.Proto].Inc()
		}
		if trc := eng.trc; trc != nil {
			trc.Complete("rpc", "serve."+a.Proto.String(), eng.node.ID(), c.id,
				start, int64(p.Now()),
				obs.Arg{K: "fn", V: a.Fn}, obs.Arg{K: "size", V: len(a.Payload)})
		}
		// The entry takes over the buffer the response may be cut from and
		// hands the previous one back to the arena.
		c.Recycle(c.dedup.req)
		a.Payload = nil
		c.dedup = dedupEntry{served: true, resp: resp, req: own, arr: a}
	}
}

// settle decides where a handler's response lives from here on, and which
// arena buffer the dedup entry owns: the request's. The dedup cache keeps
// the response until the connection's next request replaces it, and a
// retransmission sends it again — so a response serialized into the
// staging region (ResponseStage) may stay there only if nothing overwrites
// the region before then. That holds (the connection's next response is
// the one that replaces the entry) on every protocol that sends a staged
// payload in place; an eager response that restages its own fragments
// moves to an arena buffer. A request served in place ends its loan here,
// and no slice comparison tells a cut of it (req[0:8:8]) from another
// response, so any unstaged response moves to an arena buffer the entry owns.
func (c *Conn) settle(a Arrival, resp []byte) ([]byte, []byte) {
	own := a.Payload
	if c.lent(own) {
		own = nil
		if !c.staged(resp) {
			resp = c.copyPayload(resp)
			own = resp
		}
		c.endLoan(a.Payload)
	}
	if c.staged(resp) && c.restages(hybridSwitch(a.RespProto, len(resp)).row().resp, len(resp)) {
		resp = c.copyPayload(resp)
	}
	return resp, own
}

// Conns returns the accepted server-side connections (for inspection).
func (s *Server) Conns() []*Conn { return s.conns }

// ---------------------------------------------------------------------------
// Graceful drain (DESIGN.md §17)

// drainPollNs paces the Drain quiesce wait. Coarse enough to stay off
// the hot path, fine enough that quiescence is observed well inside any
// realistic drain deadline.
const drainPollNs = 10_000

// SetDraining flips the drain fence. While set, new requests are
// rejected with the typed kDrain marker. In-flight handlers are
// unaffected.
func (s *Server) SetDraining(v bool) { s.draining = v }

// Active returns the number of requests currently in flight: handlers
// executing plus requests queued in admission control.
func (s *Server) Active() int {
	n := s.active
	if s.adm != nil {
		n += s.adm.waiting.Len()
	}
	return n
}

// Drain raises the drain fence and waits until every in-flight request
// (executing or admission-queued) has completed. Returns true when the
// server quiesced, false when the deadline expired first or the node
// went down mid-wait (the caller escalates to the crash path). Must run
// on a process that survives the node crashing — an env-owned ops
// process, not a node-owned dispatcher.
func (s *Server) Drain(p *sim.Proc, deadline sim.Time) bool {
	s.SetDraining(true)
	for {
		if s.eng.node.Down() {
			return false
		}
		if s.Active() == 0 {
			return true
		}
		if deadline > 0 && p.Now() >= deadline {
			return false
		}
		p.Sleep(drainPollNs)
	}
}
