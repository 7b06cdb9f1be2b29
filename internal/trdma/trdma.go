// Package trdma is the bridge layer between the Thrift runtime and the
// RDMA communication engine (§4.3, Figure 9): TRdma and TServerRdma are
// the counterparts of TSocket and TServerSocket. The programming model is
// intentionally TSocket-compatible — generated code writes a Thrift
// message and flushes; TRdma maps the flush to a hint-planned engine call
// and surfaces the response bytes for reading.
//
// Static (service-level) hints are applied when the connection is
// established; dynamic (function-level) hints are resolved once per
// function and cached, so the per-call overhead is a map lookup of a
// pre-computed plan (§4.3: "we minimize the overhead of the dynamic hints
// by only passing the pointer and caching the RPC function type").
package trdma

import (
	"fmt"

	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/ipoib"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// ServiceHints is the generated hint table for one service: the
// service-level set plus per-function sets (Figure 1's hierarchy).
type ServiceHints struct {
	ServiceName string
	Service     *hints.Set
	Functions   map[string]*hints.Set
	// FnIDs maps function names to wire ids (stable, 1-based in
	// declaration order).
	FnIDs map[string]uint32
	// Oneway marks the functions declared oneway, which have no reply.
	Oneway map[string]bool
}

// ServiceOnly returns the table with every function-level set emptied and
// service as the service-level set: the paper's "HatRPC-Service" variants.
func (sh *ServiceHints) ServiceOnly(service *hints.Set) *ServiceHints {
	fns := make(map[string]*hints.Set, len(sh.Functions))
	for name := range sh.Functions {
		fns[name] = hints.NewSet()
	}
	return &ServiceHints{
		ServiceName: sh.ServiceName,
		Service:     service,
		Functions:   fns,
		FnIDs:       sh.FnIDs,
		Oneway:      sh.Oneway,
	}
}

// Resolve flattens the hierarchy for one function and side.
func (sh *ServiceHints) Resolve(fn string, side hints.Side) hints.Resolved {
	return hints.TypeCheck(hints.Resolve(sh.Service, sh.Functions[fn], side))
}

// plan is the cached per-function execution plan.
type plan struct {
	id     uint32 // the function's wire id
	opts   engine.CallOpts
	useTCP bool
}

// Transport is the message-level RPC channel generated clients call.
type Transport interface {
	// Invoke performs one RPC for the named function. The response bytes
	// stay valid until the next Invoke on the same transport — or on any
	// transport sharing its session (SessionTransport). oneway marks a
	// function without a reply: over IPoIB its request is sent and not
	// waited on, since TCP delivers it; over RDMA it is a call like any
	// other, answered with the empty reply Table.Serve returns for it, so
	// that it is resent, deduplicated and refused typed as a call is.
	Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error)
	// Stage lends a buffer, empty, for the next request to be serialized
	// into: the one the channel sends from, so that an Invoke handed a
	// request that lies there sends it without copying it, or one the
	// transport reuses for every request. Nil when the channel has no such
	// buffer; a request serialized anywhere else is always accepted.
	Stage() []byte
	// Close releases the channel.
	Close() error
}

// TRdma is the client-side hint-accelerated transport over the RDMA
// engine, with optional per-function TCP (IPoIB) fallback for hybrid
// transport hints (§3.3, §5.5).
type TRdma struct {
	conn  *engine.Conn
	tcp   *ipoib.Conn
	plans plans
	// policy is DialOptions.Policy: non-nil overrides plans on every call.
	policy func(fn string, reqSize int) engine.CallOpts
	closed bool
}

var _ Transport = (*TRdma)(nil)

// DialOptions configures connection establishment.
type DialOptions struct {
	// Policy, when non-nil, replaces the hint-derived plans: each call's
	// options are what it returns for that function and request size (the
	// ATB fixed-protocol baselines, the YCSB comparator emulations). It is
	// consulted on every call, never cached.
	Policy func(fn string, reqSize int) engine.CallOpts
}

// Dial establishes a hint-accelerated connection to the service listening
// on the target node. Static hints drive the connection-time setup;
// per-function plans are derived lazily and cached.
func Dial(p *sim.Proc, eng *engine.Engine, target *simnet.Node, sh *ServiceHints, opt *DialOptions) *TRdma {
	t := &TRdma{plans: newPlans(sh, eng.Cores())}
	needTCP := false
	for fn := range sh.FnIDs {
		if sh.Resolve(fn, hints.SideClient).UseTCP {
			needTCP = true
		}
	}
	svcClient := hints.TypeCheck(sh.Service.ForSide(hints.SideClient))
	allTCP := svcClient.UseTCP && !anyRdmaFunction(sh)
	if !allTCP {
		t.conn = eng.Dial(p, target, "hat:"+sh.ServiceName)
		t.conn.SetNUMABound(svcClient.NUMABind)
	}
	if needTCP || allTCP {
		t.tcp = ipoib.Dial(p, eng.Node(), target, "hat:"+sh.ServiceName, nil)
	}
	if opt != nil {
		t.policy = opt.Policy
	}
	return t
}

func anyRdmaFunction(sh *ServiceHints) bool {
	for fn := range sh.FnIDs {
		r := sh.Resolve(fn, hints.SideClient)
		if !r.UseTCP {
			return true
		}
	}
	return false
}

// plans is a service's client-side plans, each resolved from the hints on
// its function's first call and cached, with the call's deadline when
// deadline is set.
type plans struct {
	sh       *ServiceHints
	cores    int
	deadline func(fn string) sim.Duration
	m        map[string]plan
}

func newPlans(sh *ServiceHints, cores int) plans {
	return plans{sh: sh, cores: cores, m: make(map[string]plan)}
}

// of resolves (once) the client-side plan for a function; ok is false for
// a function the service does not have.
func (ps plans) of(fn string) (pl plan, ok bool) {
	if pl, ok := ps.m[fn]; ok {
		return pl, true
	}
	if pl.id, ok = ps.sh.FnIDs[fn]; !ok {
		return plan{}, false
	}
	r := ps.sh.Resolve(fn, hints.SideClient)
	if r.UseTCP {
		pl.useTCP = true
	} else {
		ep := engine.SelectPlan(r, ps.cores, r.PayloadSize, engine.DefaultRndvThreshold)
		pl.opts = engine.CallOpts{Proto: ep.Proto, Busy: ep.Busy}
		// An asymmetric response regime (server payload hint differing
		// from the client's) re-plans the response protocol.
		rs := ps.sh.Resolve(fn, hints.SideServer)
		if rs.PayloadSize != 0 && rs.PayloadSize != r.PayloadSize {
			rp := engine.SelectPlan(r, ps.cores, rs.PayloadSize, engine.DefaultRndvThreshold)
			pl.opts.RespProto = rp.Proto
		}
	}
	if ps.deadline != nil {
		pl.opts.Deadline = ps.deadline(fn)
	}
	ps.m[fn] = pl
	return pl, true
}

// Invoke performs one RPC using the function's cached plan, or what the
// dial-time policy says for this call.
func (t *TRdma) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	if t.closed {
		return nil, fmt.Errorf("trdma: transport closed")
	}
	pl, ok := t.plans.of(fn)
	if !ok {
		return nil, fmt.Errorf("trdma: unknown function %q", fn)
	}
	opts := pl.opts
	if t.policy != nil {
		opts = t.policy(fn, len(request))
	} else if pl.useTCP {
		if oneway {
			t.tcp.Send(p, request)
			return nil, nil
		}
		return t.tcp.Call(p, request), nil
	}
	return t.conn.Invoke(p, pl.id, request, opts)
}

// Stage lends the engine connection's registered staging region (see
// engine.Conn.Stage).
func (t *TRdma) Stage() []byte {
	if t.conn == nil {
		return nil
	}
	return t.conn.Stage()
}

// Plan exposes the hint-resolved client plan for a function (for tests and
// introspection).
func (t *TRdma) Plan(fn string) engine.CallOpts {
	pl, _ := t.plans.of(fn)
	return pl.opts
}

// Close marks the transport closed.
func (t *TRdma) Close() error {
	t.closed = true
	return nil
}

// ---------------------------------------------------------------------------
// Session channel

// OpenSession opens an engine.Session to a service served under port at
// target (without dialing, as engine.OpenSession does). Every dial declares
// the polling the service's client plans want: busy when any function's
// plan waits busily — NewServer's rule, from the dialer's side — so the
// peer busy-dispatches the connection too.
func OpenSession(eng *engine.Engine, target *simnet.Node, port string, sh *ServiceHints) *engine.Session {
	ps := newPlans(sh, eng.Cores())
	busy := false
	for fn := range sh.FnIDs {
		pl, _ := ps.of(fn)
		busy = busy || pl.opts.Busy
	}
	return eng.OpenSession(target, port, busy)
}

// SessionTransport is the Transport over an engine.Session, for a service
// whose calls are all safe to replay: where a TRdma connection dies with
// its peer, the session re-dials a restarted peer and replays the call.
// Each function's plan comes from the hints, as TRdma's do, and its
// deadline from the function the transport was built with. Transports
// sharing a session, one per calling process, serialize a request into the
// session's staging region (engine.Session.Stage: generated code does not
// yield before it Invokes), or into their own buffer while another call
// holds the session. A reply is lent until the session's next call
// (engine.Session.Invoke), whichever transport makes it, so it is read
// before its caller yields, as a generated client reads it.
type SessionTransport struct {
	s     *engine.Session
	plans plans
	req   []byte // what Stage lends when the session lends nothing
}

var _ Transport = (*SessionTransport)(nil)

// NewSessionTransport returns a transport calling the service sh describes
// over s, each call of fn bounded by deadline(fn). cores is the calling
// node's, as the plans are.
func NewSessionTransport(s *engine.Session, sh *ServiceHints, cores int, deadline func(fn string) sim.Duration) *SessionTransport {
	ps := newPlans(sh, cores)
	ps.deadline = deadline
	return &SessionTransport{s: s, plans: ps}
}

// Invoke performs one RPC over the session under the function's plan and
// deadline.
func (t *SessionTransport) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	pl, ok := t.plans.of(fn)
	if !ok {
		return nil, fmt.Errorf("trdma: unknown function %q", fn)
	}
	out, err := t.s.Invoke(p, pl.id, request, pl.opts)
	if len(request) > cap(t.req) {
		// By length: a staged request's capacity is the staging region's.
		t.req = make([]byte, 0, len(request))
	}
	return out, err
}

// Stage lends the session's staging region, or the transport's own buffer
// when the session lends nothing: the session copies a request from there.
func (t *SessionTransport) Stage() []byte {
	if b := t.s.Stage(); b != nil {
		return b
	}
	return t.req[:0]
}

// Plan exposes the hint-resolved plan of a function (for tests and
// introspection).
func (t *SessionTransport) Plan(fn string) engine.CallOpts {
	pl, _ := t.plans.of(fn)
	return pl.opts
}

// Close does nothing: the session is its opener's to close.
func (t *SessionTransport) Close() error { return nil }

// ---------------------------------------------------------------------------
// Server side

// Processor is the generated server-side dispatcher: it consumes a framed
// Thrift request and produces the framed response bytes (empty for
// oneway). The request is lent for the call, and with it every binary
// argument decoded from it.
type Processor interface {
	ProcessBytes(p *sim.Proc, fnID uint32, request []byte) []byte
}

// TServerRdma serves a processor over the RDMA engine, with an IPoIB
// listener alongside when any function hints transport=tcp.
type TServerRdma struct {
	srv *engine.Server
}

// NewServer builds and starts the hint-configured server: the dispatcher
// polling mode derives from the server-side resolved hints (busy if any
// function's server plan wants busy polling), NUMA binding from the
// service-level hint.
func NewServer(eng *engine.Engine, sh *ServiceHints, proc Processor) *TServerRdma {
	busy := false
	tcpToo := false
	maxConc := 0
	for fn := range sh.FnIDs {
		r := sh.Resolve(fn, hints.SideServer)
		if r.UseTCP {
			tcpToo = true
			continue
		}
		if r.Concurrency > maxConc {
			maxConc = r.Concurrency
		}
		pl := engine.SelectPlan(r, eng.Cores(), r.PayloadSize, engine.DefaultRndvThreshold)
		if pl.Busy {
			busy = true
		}
	}
	// One dispatcher process serves each connection; spinning with more
	// connections than cores would starve the handlers (the Fig. 5
	// busy-polling collapse), so busy dispatch is only kept while the
	// expected concurrency fits the machine.
	if maxConc > eng.Cores() {
		busy = false
	}
	svcServer := hints.TypeCheck(sh.Service.ForSide(hints.SideServer))
	srv := eng.Serve("hat:"+sh.ServiceName, func(p *sim.Proc, fnID uint32, req []byte) []byte {
		return proc.ProcessBytes(p, fnID, req)
	})
	srv.Busy = busy
	srv.NUMABind = svcServer.NUMABind
	if tcpToo || svcServer.UseTCP {
		// The IPoIB side of a hybrid-transport service.
		acceptTCP(eng.Node(), "hat:"+sh.ServiceName, "hat-tcp-"+sh.ServiceName, proc)
	}
	return &TServerRdma{srv: srv}
}

// acceptTCP serves proc to IPoIB connections on port, one process per
// connection (a threaded server), all named after procName. The fn id rides
// inside the Thrift message name, so the processor receives id 0 and
// dispatches by name.
func acceptTCP(node *simnet.Node, port, procName string, proc Processor) {
	ln := ipoib.Listen(node, port, nil)
	node.Spawn(procName, func(p *sim.Proc) {
		for i := 0; ; i++ {
			conn := ln.Accept(p)
			node.Spawn(fmt.Sprintf("%s-%d", procName, i), func(cp *sim.Proc) {
				for {
					req := conn.Recv(cp)
					resp := proc.ProcessBytes(cp, 0, req)
					if len(resp) > 0 {
						conn.Send(cp, resp)
					}
				}
			})
		}
	})
}

// EngineServer exposes the underlying engine server (for stats).
func (s *TServerRdma) EngineServer() *engine.Server { return s.srv }

// ---------------------------------------------------------------------------
// Vanilla Thrift-over-IPoIB channel (the paper's baseline)

// TCPTransport runs the same generated code over plain framed IPoIB —
// vanilla Thrift. It satisfies Transport.
type TCPTransport struct {
	conn *ipoib.Conn
}

var _ Transport = (*TCPTransport)(nil)

// DialTCP connects the vanilla Thrift baseline.
func DialTCP(p *sim.Proc, from, to *simnet.Node, serviceName string) *TCPTransport {
	return &TCPTransport{conn: ipoib.Dial(p, from, to, "thrift:"+serviceName, nil)}
}

// Invoke ships the framed request over the kernel socket path.
func (t *TCPTransport) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	if oneway {
		t.conn.Send(p, request)
		return nil, nil
	}
	return t.conn.Call(p, request), nil
}

// Stage lends nothing: the kernel socket path copies what it is given.
func (t *TCPTransport) Stage() []byte { return nil }

// Close is a no-op.
func (t *TCPTransport) Close() error { return nil }

// ServeTCP runs a processor as a vanilla Thrift-over-IPoIB server.
func ServeTCP(node *simnet.Node, serviceName string, proc Processor) {
	acceptTCP(node, "thrift:"+serviceName, "thrift-tcp-"+serviceName, proc)
}
