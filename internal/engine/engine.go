package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/verbs"
)

// Config sizes the engine's per-connection resources.
type Config struct {
	// MaxMsgSize bounds a single RPC payload; direct buffers are sized to
	// hold it.
	MaxMsgSize int
	// EagerSlots is the ring depth (pre-posted receives per connection).
	EagerSlots int
	// NoFetchBufs skips the server-side published regions, which only
	// protocols whose Protocol.NeedsFetchBufs holds use. Benchmarks that
	// pin a two-sided protocol set this to keep per-connection memory
	// small.
	NoFetchBufs bool
	// CallDeadline is the default per-call deadline applied when
	// CallOpts.Deadline is zero. Zero (the default) disables deadlines:
	// a call is one unbounded attempt and may block forever on a lossy
	// fabric.
	CallDeadline sim.Duration

	// FlowCredits enables receiver-driven credit flow control when
	// positive: it is the number of peer RECV-ring slots one endpoint may
	// have outstanding (clamped to EagerSlots; a small reserve is carved
	// out for control messages). Grants piggyback on every outbound
	// header and a low-water async credit update keeps one-directional
	// flows live. Both endpoints of a connection must agree on the value
	// (they already must agree on EagerSlots). Zero — the
	// default — disables flow control entirely: senders post unboundedly,
	// exactly the pre-credit behaviour.
	FlowCredits int
	// ModelRNR arms finite RECV depth on every connection QP: a SEND or
	// WRITE_WITH_IMM arriving with no posted RECV draws an RNR NAK (with
	// the modelled RNR-timer backoff) instead of being buffered, and
	// RnrRetry exhausted retransmissions fail the work request with
	// WCRNRRetryExceeded. False keeps the legacy infinite buffering.
	ModelRNR bool
	// RnrRetry is the RNR retransmission budget when ModelRNR is set.
	// Zero means DefaultRnrRetry.
	RnrRetry int
	// BreakerThreshold arms the client-side circuit breaker: this many
	// consecutive overload/deadline failures on a connection open it.
	// Zero (the default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// half-open probing (doubling after each failed probe, capped at 16×).
	// Zero means DefaultBreakerCooldown.
	BreakerCooldown sim.Duration
}

// eagerSlotSize is the payload capacity of one circular-buffer slot: a
// message up to the rendezvous threshold fits one. rfpChunk is RFP's probe
// size, its first READ of a response of unknown length; hdrProbe is
// Pilaf's and FaRM's, a header up to its seq (fetchProbe).
const (
	eagerSlotSize = DefaultRndvThreshold
	rfpChunk      = 4096
	hdrProbe      = 16
)

// DefaultRnrRetry is the RNR retransmission budget applied when
// Config.RnrRetry is zero (matches the common 7-retry RNIC default,
// minus the initial attempt).
const DefaultRnrRetry = 6

// DefaultBreakerCooldown is the initial open-state cooldown applied when
// Config.BreakerCooldown is zero: 1 ms of virtual time.
const DefaultBreakerCooldown = sim.Duration(1_000_000)

// DefaultRndvPoolCap bounds the free list of each rendezvous size
// class. Buffers released beyond the cap are deregistered (unpinned) so
// a mixed-size workload's pinned memory plateaus instead of growing with
// every size class it ever touched.
const DefaultRndvPoolCap = 8

// DefaultConfig returns the sizing used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MaxMsgSize: 1 << 20,
		EagerSlots: 64,
	}
}

// Engine is the per-node RDMA communication engine.
type Engine struct {
	node *simnet.Node
	dev  *verbs.Device
	pd   *verbs.PD
	cfg  Config
	env  *sim.Env

	rndvFree map[int][]*verbs.MR // size-class → free registered buffers

	pinnedBytes int64 // registered (pinned) memory held by conns and the rndv pool

	conns      []*Conn
	nextConnID int
	closed     bool

	// Observability (obs package doc, constraint 1): an event is counted by
	// one instrument of em and nowhere else.
	obs *obs.Registry // the attached registry; nil = off
	trc *obs.Tracer   // cached from obs; nil = tracing off
	em  engineMetrics // cached instruments; all nil (no-ops) when obs is nil
}

// New creates an engine on the node (opening a simulated RNIC).
func New(node *simnet.Node, cfg Config) *Engine {
	if cfg.MaxMsgSize <= 0 {
		cfg = DefaultConfig()
	}
	dev := verbs.OpenDevice(node, nil)
	return &Engine{
		node:     node,
		dev:      dev,
		pd:       dev.AllocPD(),
		cfg:      cfg,
		env:      node.Cluster().Env(),
		rndvFree: make(map[int][]*verbs.MR),
	}
}

// PinnedBytes returns the bytes of registered (pinned) memory the engine
// currently holds across connections and the rendezvous pool.
func (e *Engine) PinnedBytes() int64 { return e.pinnedBytes }

// engineMetrics caches the engine's obs instruments so the hot path is an
// array index and a nil-safe call, never a map lookup.
type engineMetrics struct {
	calls     [nProtocols]*obs.Counter
	served    [nProtocols]*obs.Counter
	bytesSent [nProtocols]*obs.Counter
	callLat   [nProtocols]*obs.Histogram

	bytesRecvd  *obs.Counter // payload bytes delivered to the application
	stageCopy   *obs.Counter // payload bytes copied into the staging region (stagePayload)
	copyOut     *obs.Counter // payload bytes copied into arena buffers (copyPayload)
	readRetries *obs.Counter // one-sided fetch polls that found stale data
	eagerFrags  *obs.Counter
	poolHit     *obs.Counter
	poolMiss    *obs.Counter
	poolDrop    *obs.Counter
	ctsWait     *obs.Histogram
	rndvReg     *obs.Histogram

	// Reliability-layer instruments (only move under fault injection
	// or explicit deadlines).
	retries          *obs.Counter
	deadlineExceeded *obs.Counter
	dupRequests      *obs.Counter
	droppedHeaders   *obs.Counter // peer headers that do not fit their message (Conn.fits)
	oversizeResps    *obs.Counter // handler responses over MaxMsgSize, refused typed
	qpRecoveries     *obs.Counter
	rto              *obs.Histogram // the timer armed per attempt of a deadline-bounded call

	// Overload-protection instruments (only move when flow control,
	// admission control, RNR modelling or the breaker is enabled).
	shed          [nProtocols]*obs.Counter // requests rejected by admission
	creditStalls  [nProtocols]*obs.Counter // sends blocked on zero credits
	rnrFailures   *obs.Counter             // WCRNRRetryExceeded completions
	breakerOpen   *obs.Counter             // breaker open transitions
	creditUpdates *obs.Counter             // grant updates sent on their own (postGrant)

	// Session-lifecycle instruments (only move when Sessions are used).
	sessionRedials   *obs.Counter // dial attempts while re-establishing
	sessionFailovers *obs.Counter // successful reconnects (epoch ≥ 2)
	sessionReplays   *obs.Counter // session calls replayed across a reconnect

	// Busy-dispatch grants (Server.grantBusy): a dialer that declared busy
	// polling was granted a busy dispatcher, or the core cap refused it.
	busyDispatch        *obs.Counter
	busyDispatchRefused *obs.Counter
}

// newEngineMetrics resolves the instrument set; the nil registry yields
// the all-nil set that counts nothing.
func newEngineMetrics(r *obs.Registry) engineMetrics {
	m := engineMetrics{
		bytesRecvd:  r.Counter("engine.bytes_recvd"),
		stageCopy:   r.Counter("engine.stage_copy_bytes"),
		copyOut:     r.Counter("engine.copy_out_bytes"),
		readRetries: r.Counter("engine.read_retries"),
		eagerFrags:  r.Counter("engine.eager_frags"),
		poolHit:     r.Counter("engine.rndv_pool.hit"),
		poolMiss:    r.Counter("engine.rndv_pool.miss"),
		poolDrop:    r.Counter("engine.rndv_pool.drop"),
		ctsWait:     r.Histogram("engine.cts_wait_ns"),
		rndvReg:     r.Histogram("engine.rndv_register_ns"),

		retries:          r.Counter("engine.retries"),
		deadlineExceeded: r.Counter("engine.deadline_exceeded"),
		dupRequests:      r.Counter("engine.dup_requests"),
		droppedHeaders:   r.Counter("engine.dropped_headers"),
		oversizeResps:    r.Counter("engine.oversize_responses"),
		qpRecoveries:     r.Counter("engine.qp_recoveries"),
		rto:              r.Histogram("engine.rto_ns"),

		rnrFailures:   r.Counter("engine.rnr_failures"),
		breakerOpen:   r.Counter("engine.breaker_open"),
		creditUpdates: r.Counter("engine.credit_updates"),

		sessionRedials:   r.Counter("engine.session_redials"),
		sessionFailovers: r.Counter("engine.session_failovers"),
		sessionReplays:   r.Counter("engine.replays"),

		busyDispatch:        r.Counter("engine.busy_dispatch"),
		busyDispatchRefused: r.Counter("engine.busy_dispatch_refused"),
	}
	m.calls = protoCounters(r, "engine.calls.")
	m.served = protoCounters(r, "engine.served.")
	m.bytesSent = protoCounters(r, "engine.bytes_sent.")
	m.shed = protoCounters(r, "engine.shed.")
	m.creditStalls = protoCounters(r, "engine.credit_stalls.")
	for i := range m.callLat {
		m.callLat[i] = r.Histogram("engine.call_lat_ns." + Protocol(i).String()) //hatlint:allow obsnames -- suffix bounded by the Protocol enum
	}
	return m
}

// protoCounters registers one counter per protocol under prefix.
func protoCounters(r *obs.Registry, prefix string) (out [nProtocols]*obs.Counter) {
	for i := range out {
		out[i] = r.Counter(prefix + Protocol(i).String()) //hatlint:allow obsnames -- suffix bounded by the Protocol enum
	}
	return out
}

// SetObs attaches an observability registry to the engine and its NIC:
// per-protocol call/serve counters and latency histograms, rendezvous
// pool and control-phase instruments, plus gauges sampling CPU load and
// NIC gate utilization. When the registry carries a tracer, the engine
// also emits deterministic sim-time event spans. Pass nil to detach.
func (e *Engine) SetObs(r *obs.Registry) {
	e.obs = r
	e.trc = r.Tracer()
	e.em = newEngineMetrics(r)
	e.dev.SetObs(r)
	if r == nil {
		return
	}
	node, env := e.node, e.env
	pfx := fmt.Sprintf("node%d.", node.ID())
	r.Gauge(pfx+"cpu.load_factor", func() float64 { return node.CPU.LoadFactor() })      //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"nic.tx.util", func() float64 { return node.TX.Utilization(env.Now()) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"nic.rx.util", func() float64 { return node.RX.Utilization(env.Now()) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"engine.pinned_bytes", func() float64 { return float64(e.pinnedBytes) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
}

// Node returns the node this engine runs on.
func (e *Engine) Node() *simnet.Node { return e.node }

// Conns returns every connection this engine created, both dialed and
// accepted (for inspection — e.g. leak assertions over PostedRecvs).
func (e *Engine) Conns() []*Conn { return e.conns }

// Config returns the engine sizing.
func (e *Engine) Config() Config { return e.cfg }

// Cores returns the node's core count (for subscription classification).
func (e *Engine) Cores() int { return e.node.CPU.Cores() }

// sizeClass rounds a buffer size up to a power of two for pooling.
func sizeClass(n int) int {
	c := 4096
	for c < n {
		c <<= 1
	}
	return c
}

// acquireRndv takes a registered buffer from the rendezvous pool,
// registering a new one (expensive) only when the pool is dry (§4.3:
// "HatRPC pre-allocates and registers a buffer pool which makes
// requesting memories fast during the communication").
func (e *Engine) acquireRndv(p *sim.Proc, size int) *verbs.MR {
	cls := sizeClass(size)
	free := e.rndvFree[cls]
	if n := len(free); n > 0 {
		mr := free[n-1]
		free[n-1] = nil
		e.rndvFree[cls] = free[:n-1]
		mr.SetRevoked(false) // remote access restored for the new transfer
		e.em.poolHit.Inc()
		p.Sleep(200) // pool pop + bookkeeping
		return mr
	}
	e.pinnedBytes += int64(cls)
	start := int64(p.Now())
	mr := e.pd.RegisterMR(p, cls)
	e.em.poolMiss.Inc()
	e.em.rndvReg.Observe(float64(int64(p.Now()) - start))
	if trc := e.trc; trc != nil {
		trc.Complete("rndv", "register", e.node.ID(), 0, start, int64(p.Now()),
			obs.Arg{K: "bytes", V: cls})
	}
	return mr
}

// releaseRndv returns a pool buffer. Each size class keeps at most
// DefaultRndvPoolCap free buffers; overflow is dropped and its pinned
// bytes returned, bounding pool growth under mixed-size workloads.
func (e *Engine) releaseRndv(mr *verbs.MR) {
	// Withdraw remote access first: an in-flight one-sided transfer still
	// holding this rkey (a retransmission race) must not touch the buffer
	// once it can be recycled. Nothing it holds is read again.
	mr.SetRevoked(true)
	mr.Drop(0, mr.Len())
	cls := sizeClass(mr.Len())
	free := e.rndvFree[cls]
	if len(free) >= DefaultRndvPoolCap {
		mr.Deregister()
		e.pinnedBytes -= int64(cls)
		e.em.poolDrop.Inc()
		return
	}
	e.rndvFree[cls] = append(free, mr)
}

// ---------------------------------------------------------------------------
// Wire header

// hdrSize is the modelled header: 24 bytes of fields and a reserved
// trailing word, written zero. The size is part of the timing model (wire
// bytes, the inline cut), so it moves only with results/.
const hdrSize = 28

// Message kinds.
const (
	kReq    byte = 1
	kResp   byte = 2
	kRTS    byte = 3
	kCTS    byte = 4
	kNotify byte = 5
	kFin    byte = 6
	_       byte = 7  // retired: credit-grant updates are WRITEs now (flow.go)
	kErr    byte = 8  // typed overload rejection (header-only)
	kDrain  byte = 9  // typed draining rejection (header-only)
	kBig    byte = 10 // typed refusal of a response over MaxMsgSize (header-only)
)

// rejection reports whether kind is one of the typed header-only answers
// that take a response's place.
func rejection(kind byte) bool { return kind == kErr || kind == kDrain || kind == kBig }

const immDirect uint32 = 0xFFFFFFFF

type hdr struct {
	kind      byte
	proto     Protocol
	respProto Protocol
	fn        uint32
	length    uint32 // total payload length of the message
	seq       uint32
	off       uint32 // fragment offset (eager segmentation)
	credits   uint32 // cumulative RECV-repost grant (flow control; 0 when off)
}

func putHdr(b []byte, h hdr) {
	_ = b[hdrSize-1] // bounds hint: callers hand fixed-size registered MRs
	b[0] = h.kind
	b[1] = byte(h.proto)
	b[2] = byte(h.respProto)
	b[3] = 0 // reserved byte
	binary.LittleEndian.PutUint32(b[4:], h.fn)
	binary.LittleEndian.PutUint32(b[8:], h.length)
	binary.LittleEndian.PutUint32(b[12:], h.seq)
	binary.LittleEndian.PutUint32(b[16:], h.off)
	binary.LittleEndian.PutUint32(b[20:], h.credits)
	binary.LittleEndian.PutUint32(b[24:], 0) // reserved word
}

// decodeHdr is the bounds-checked variant of getHdr for buffers whose
// length is not structurally guaranteed (getHdr's callers all read from
// fixed-size registered MRs, which are always >= hdrSize). The reserved
// byte b[3] and the reserved trailing word b[24:28] must be zero —
// anything else means the bytes are not a header this engine version
// produced.
func decodeHdr(b []byte) (hdr, bool) {
	if len(b) < hdrSize || b[3] != 0 || binary.LittleEndian.Uint32(b[24:]) != 0 {
		return hdr{}, false
	}
	return getHdr(b), true
}

func getHdr(b []byte) hdr {
	_ = b[hdrSize-1] // bounds hint: callers hand fixed-size registered MRs
	return hdr{
		kind:      b[0],
		proto:     Protocol(b[1]),
		respProto: Protocol(b[2]),
		fn:        binary.LittleEndian.Uint32(b[4:]),
		length:    binary.LittleEndian.Uint32(b[8:]),
		seq:       binary.LittleEndian.Uint32(b[12:]),
		off:       binary.LittleEndian.Uint32(b[16:]),
		credits:   binary.LittleEndian.Uint32(b[20:]),
	}
}

// rndvKey namespaces the shared rendezvous table by transfer direction so
// a request and its response (same seq) never collide.
func rndvKey(seq uint32, fromServer bool) uint64 {
	k := uint64(seq) << 1
	if fromServer {
		k |= 1
	}
	return k
}

// Arrival is a delivered request (at the server) or response (at the
// client).
type Arrival struct {
	Kind      byte
	Proto     Protocol
	RespProto Protocol
	Fn        uint32
	Seq       uint32
	Payload   []byte

	// dup marks a request the pump recognised as a retransmission of the
	// one the connection last served: it carries no payload, only the
	// cue for the dispatcher to resend the cached response.
	dup bool
}

// connShared is the per-connection control blackboard both endpoints
// reference. In a real deployment rendezvous RKeys travel inside CTS/RTS
// packets; in the simulation the key bytes are represented by entries in
// this shared table, while the data payloads still traverse the simulated
// fabric.
type connShared struct {
	rndv map[uint64]verbs.RKey // rndvKey → exposed buffer for WRITE/READ
	// closed is the orderly-disconnect notice (RDMA-CM's DREQ): set when
	// either endpoint runs Conn.Close. A crashed endpoint never closes, so
	// only a planned shutdown tells the peer its connection is gone — a
	// Session re-dials at its next use instead of waiting out a deadline
	// on a dead boot.
	closed bool
	// release hands the server's busy-dispatch grant back (Server.grantBusy);
	// the first Close of either endpoint runs it. Nil when none was granted.
	release func()
}

// hello is the out-of-band connection handshake payload (QPN/LID/rkey
// exchange in a real system).
type hello struct {
	qp     *verbs.QP
	direct verbs.RKey
	rfpIn  verbs.RKey
	rfpOut verbs.RKey
	credit verbs.RKey
	shared *connShared
	// busy is the dialer's polling decision, carried to the server so its
	// dispatcher can poll the same way (Server.grantBusy).
	busy bool
}

// Conn is one endpoint of an engine connection. A Conn carries one
// outstanding call at a time (Thrift connection semantics); concurrency
// comes from many connections.
type Conn struct {
	eng    *Engine
	server bool
	id     int // engine-local index; trace tid

	qp   *verbs.QP
	cq   *verbs.CQ
	sig  *sim.Signal
	wake func() // sig.Fire, bound once: every armed wake reuses it

	eagerMR  *verbs.MR // receive ring
	slotSize int
	slots    int
	stageMR  *verbs.MR // outbound staging
	directMR *verbs.MR // inbound direct-write target
	creditMR *verbs.MR // credit words: the peer WRITEs its grant updates here (flow.go)
	win      *byte     // where the last window onto directMR starts, kept past Close (lent)
	loan     []byte    // the response the last Invoke lent; the next call ends it

	// Server-side published regions (client reads them one-sided).
	rfpInMR  *verbs.MR
	rfpOutMR *verbs.MR

	// Peer rkeys.
	peerDirect verbs.RKey
	peerRfpIn  verbs.RKey
	peerRfpOut verbs.RKey
	peerCredit verbs.RKey

	shared *connShared

	// seq numbers this connection's calls. It is uint32 and wraps after
	// 2^32 calls; that is safe because a Conn carries one outstanding
	// call at a time, so at most one seq's control state (rndv maps,
	// shared-table keys, CTS flags, frag reassembly) is live when a new
	// seq is issued — an old entry can never alias a wrapped value.
	seq      uint32
	nextWRID uint64

	// Per-seq control state. Every normal completion path deletes its
	// entry (handleWriteImm, handleRecvSlot kFin, handleWC OpRead,
	// waitCTS); an abnormal one — a peer that vanished mid-rendezvous —
	// leaves residue that Close drains.
	rfpPending   bool                 // server: un-consumed RFP/HERD request in rfpInMR
	rndvIn       map[uint32]*verbs.MR // receiver: buffers awaiting WRITE_IMM or READ, by seq
	rndvOut      map[uint32]*verbs.MR // sender: exposed buffers awaiting FIN, by seq
	pendingReads map[uint64]hdr       // READ wrid → header context (Read-RNDV pull)

	// Orphaned rendezvous buffers from aborted (deadline-exceeded)
	// calls: a peer-side one-sided transfer may still target them, so
	// they cannot rejoin the pool until the late completion (WRITE_IMM,
	// READ, FIN) arrives — or Close drains them.
	orphanIn  map[uint32]*verbs.MR
	orphanOut map[uint32]*verbs.MR

	// Server-side idempotent dedup: the seq of the last executed request
	// and its cached response. A retransmitted request (same seq) resends
	// the cached response without re-running the handler. One entry
	// suffices because a connection carries one outstanding call.
	dedup dedupEntry

	ctsReady  map[uint32]bool       // CTS seen for seq
	frags     map[uint32]*fragState // eager reassembly by seq
	respQueue sim.FIFO[Arrival]     // completed arrivals not yet consumed
	ctlTail   bool                  // the last control message was staged in the notify slot (postSmall)

	// Overload-protection state (nil when the knob is disabled).
	fc  *flowState // receiver-driven credit flow control
	brk *breaker   // client-side circuit breaker

	pinned int64 // registered bytes attributed to this conn
	closed bool

	busyLoaded bool
	numaBound  bool
	// peerBusy (server side): Accept sets it from the dialer's declared
	// polling, and Server.grantBusy keeps it only while the connection
	// holds a busy-dispatch grant.
	peerBusy bool

	// Retransmission state (reliability.go): the measured attempt timer
	// and the call in flight's current attempt.
	rto rtoEstimator
	att attempt
}

// dedupEntry caches the outcome of the last request the connection
// executed. served is false until the first request has been. The entry
// owns that request's buffer: the response may be any cut of it, so the
// buffer goes back to the arena only when the entry is replaced.
type dedupEntry struct {
	served bool
	resp   []byte
	req    []byte  // the arena buffer the entry owns (settle), never a window
	arr    Arrival // response context (Seq is the dedup key), Payload stripped
}

// isDup reports whether seq is that of the request just served — a
// retransmission of it.
func (c *Conn) isDup(seq uint32) bool {
	return c.dedup.served && c.dedup.arr.Seq == seq
}

// ID returns the engine-local connection index (used as the trace tid).
func (c *Conn) ID() int { return c.id }

// PostedRecvs reports the RECVs currently posted to the connection's QP.
// At quiescence (no message in flight) every consumed slot has been
// reposted, so this equals the configured ring depth — the invariant the
// leak-assertion test helper checks.
func (c *Conn) PostedRecvs() int { return c.qp.RecvDepth() }

// UnpolledRecvs reports RECV completions delivered to the CQ but not yet
// polled by a pump loop (e.g. stale duplicate responses that arrived
// after their call completed). Their ring slots are consumed but will be
// reposted the next time the connection pumps, so leak accounting treats
// PostedRecvs + UnpolledRecvs as the ring's true depth.
func (c *Conn) UnpolledRecvs() int { return c.cq.QueuedRecvs() }

func (e *Engine) newConn(server bool, shared *connShared) *Conn {
	c := &Conn{
		eng:          e,
		server:       server,
		id:           e.nextConnID,
		cq:           e.dev.CreateCQ(),
		sig:          sim.NewSignal(e.env),
		slotSize:     eagerSlotSize + hdrSize,
		slots:        e.cfg.EagerSlots,
		shared:       shared,
		rndvIn:       make(map[uint32]*verbs.MR),
		rndvOut:      make(map[uint32]*verbs.MR),
		pendingReads: make(map[uint64]hdr),
		orphanIn:     make(map[uint32]*verbs.MR),
		orphanOut:    make(map[uint32]*verbs.MR),
		ctsReady:     make(map[uint32]bool),
		frags:        make(map[uint32]*fragState),
	}
	e.nextConnID++
	c.qp = e.dev.CreateQP(c.cq, c.cq)
	c.wake = c.sig.Fire
	c.cq.SetNotify(c.wake)
	if e.cfg.ModelRNR {
		retry := e.cfg.RnrRetry
		if retry <= 0 {
			retry = DefaultRnrRetry
		}
		c.qp.SetRNR(retry)
	}
	if e.cfg.FlowCredits > 0 {
		c.fc = newFlowState(e.cfg.FlowCredits, e.cfg.EagerSlots)
	}
	if !server && e.cfg.BreakerThreshold > 0 {
		c.brk = newBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
	}
	// Every region's host memory is allocated as it is touched
	// (verbs.MR), so a connection costs the simulator what its messages
	// use, not MaxMsgSize; pinning is counted by registered length.
	c.eagerMR = e.pd.RegisterMRNoCost(c.slots * c.slotSize)
	c.stageMR = e.pd.RegisterMRNoCost(stagePayloadOff + e.cfg.MaxMsgSize)
	c.directMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
	// Registered with or without flow control, so that arming it changes
	// nothing — not even the pinned-bytes gauge — until it acts.
	c.creditMR = e.pd.RegisterMRNoCost(creditWords)
	// Both words are claimed now, so the region takes its whole 8 bytes
	// once, here, and not in two growths at its first grant exchange.
	c.creditMR.Claim(creditWordIn, creditWords)
	if c.fc != nil {
		c.creditMR.SetWriteNotify(c.onCreditWrite)
	}
	if server && !e.cfg.NoFetchBufs {
		// Only a client on RFP, HERD, Pilaf or FaRM ever touches these, so
		// they hold no memory until one does.
		c.rfpInMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
		c.rfpOutMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
		c.rfpInMR.SetWriteNotify(func(off, n int) {
			// A request lands as one WRITE, whole.
			c.rfpPending = true
			c.sig.Fire()
		})
	}
	// Pin accounting from the actual MR lengths so Close can return the
	// exact amount.
	for _, mr := range c.regions() {
		if mr != nil {
			c.pinned += int64(mr.Len())
		}
	}
	e.pinnedBytes += c.pinned
	e.conns = append(e.conns, c)
	for i := 0; i < c.slots; i++ {
		c.qp.PostRecv(verbs.RecvWR{
			WRID: uint64(i),
			SGE:  verbs.SGE{MR: c.eagerMR, Off: i * c.slotSize, Len: c.slotSize},
		})
	}
	return c
}

// regions lists the connection's registered regions; the fetch regions
// are nil without fetch buffers (NoFetchBufs, or a client).
func (c *Conn) regions() [6]*verbs.MR {
	return [6]*verbs.MR{c.eagerMR, c.stageMR, c.directMR, c.creditMR, c.rfpInMR, c.rfpOutMR}
}

// sortedSeqs returns m's keys ascending, so map drains never depend on
// Go's randomized iteration order (the simulation must stay
// deterministic even during teardown).
func sortedSeqs(m map[uint32]*verbs.MR) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Close releases the connection's pinned resources: the eager ring,
// staging and direct buffers, the server-side published regions, and any
// rendezvous pool buffers still held by in-flight transfers (returned to
// the engine pool, which unpins overflow beyond the cap). Shared-table
// entries for those transfers are dropped. Close is idempotent; the
// pool's own free buffers are unpinned by Engine.Close.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.shared.closed = true
	if release := c.shared.release; release != nil {
		c.shared.release = nil
		release()
	}
	for _, seq := range sortedSeqs(c.rndvIn) {
		c.eng.releaseRndv(c.rndvIn[seq])
		delete(c.shared.rndv, rndvKey(seq, !c.server))
	}
	for _, seq := range sortedSeqs(c.rndvOut) {
		c.eng.releaseRndv(c.rndvOut[seq])
		delete(c.shared.rndv, rndvKey(seq, c.server))
	}
	for _, seq := range sortedSeqs(c.orphanIn) {
		c.eng.releaseRndv(c.orphanIn[seq])
	}
	for _, seq := range sortedSeqs(c.orphanOut) {
		c.eng.releaseRndv(c.orphanOut[seq])
		delete(c.shared.rndv, rndvKey(seq, c.server))
	}
	c.rndvIn, c.rndvOut = nil, nil
	c.orphanIn, c.orphanOut = nil, nil
	c.pendingReads, c.ctsReady, c.frags = nil, nil, nil
	c.respQueue.Clear()
	c.dedup = dedupEntry{}
	c.exitWait()
	c.eng.pinnedBytes -= c.pinned
	c.pinned = 0
	for _, mr := range c.regions() {
		if mr != nil {
			mr.Deregister()
		}
	}
	c.eagerMR, c.stageMR, c.directMR = nil, nil, nil
	c.rfpInMR, c.rfpOutMR = nil, nil
	c.creditMR = nil
}

// Close tears down the engine: every connection it created is closed and
// the rendezvous pool is drained, unpinning all registered buffers.
// After Close, PinnedBytes reports zero — the pre-connection baseline —
// which the obs pinned-bytes gauge makes visible to teardown tests.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	classes := make([]int, 0, len(e.rndvFree))
	for cls := range e.rndvFree {
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	for _, cls := range classes {
		for _, mr := range e.rndvFree[cls] {
			mr.Deregister()
		}
		e.pinnedBytes -= int64(cls) * int64(len(e.rndvFree[cls]))
	}
	e.rndvFree = make(map[int][]*verbs.MR)
}

func (c *Conn) helloFor() *hello {
	h := &hello{qp: c.qp, direct: c.directMR.RKey(), credit: c.creditMR.RKey(), shared: c.shared}
	if c.server {
		h.rfpIn = c.rfpInMR.RKey()
		h.rfpOut = c.rfpOutMR.RKey()
	}
	return h
}

func (c *Conn) applyHello(h *hello) {
	// A handshake always runs on a freshly created QP, so re-target
	// refusal here means engine wiring is broken, not a runtime fault.
	if err := c.qp.Connect(h.qp); err != nil {
		panic("engine: handshake on a connected QP: " + err.Error())
	}
	c.peerDirect = h.direct
	c.peerRfpIn = h.rfpIn
	c.peerRfpOut = h.rfpOut
	c.peerCredit = h.credit
	c.shared = h.shared
}

// SetNUMABound marks the connection's processing as NUMA-local (§3.3,
// §5.5): CPU work on this connection is not penalized for remote-socket
// access.
func (c *Conn) SetNUMABound(b bool) { c.numaBound = b }

func (c *Conn) wrid() uint64 {
	c.nextWRID++
	return c.nextWRID
}

// memcpyCharge charges CPU copy time, scaled by NUMA placement.
func (c *Conn) memcpyCharge(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	w := sim.Duration(c.eng.dev.CostModel().MemcpyTime(n))
	c.eng.node.CPU.Compute(p, c.eng.node.NUMAWork(w, c.numaBound))
}

// ---------------------------------------------------------------------------
// Dialing and accepting

// Listener accepts engine connections for a named service.
type Listener struct {
	eng *Engine
	l   *simnet.Listener
}

// Listen registers a service port on the engine's node.
func (e *Engine) Listen(port string) *Listener {
	return &Listener{eng: e, l: e.node.Listen(port)}
}

// acceptHelloTimeoutNs bounds the accept side's wait for a connected
// dialer's hello — one out-of-band message behind the connect, so a
// fraction of the dial side's sessionHandshakeTimeoutNs is ample.
const acceptHelloTimeoutNs = sim.Duration(200_000)

// Accept blocks until a client dials, completing the QP/buffer handshake
// and returning the server-side connection. A dialer that connected and
// then died (or was cut off) before its hello arrived is dropped after
// acceptHelloTimeoutNs: waiting for it forever would leave the listener
// deaf to every later dial for the rest of this boot.
func (ln *Listener) Accept(p *sim.Proc) *Conn {
	for {
		ep := ln.l.Accept(p)
		raw, ok := ep.RecvUntil(p, p.Now()+sim.Time(acceptHelloTimeoutNs))
		if !ok {
			continue
		}
		ch := raw.(*hello)
		c := ln.eng.newConn(true, ch.shared)
		c.applyHello(ch)
		c.peerBusy = ch.busy
		ep.Send(p, c.helloFor(), 256)
		return c
	}
}

// Dial connects to a service port on a remote node, performing the
// out-of-band handshake (QP numbers, rkeys) and returning the client-side
// connection. It declares no polling decision: the server dispatches the
// connection as its own Busy says.
func (e *Engine) Dial(p *sim.Proc, target *simnet.Node, port string) *Conn {
	ep := e.node.Connect(p, target, port)
	c := e.newConn(false, &connShared{rndv: make(map[uint64]verbs.RKey)})
	ep.Send(p, c.helloFor(), 256)
	sh := ep.Recv(p).(*hello)
	c.applyHello(sh)
	return c
}

// TryDial is Dial with a bounded handshake: connecting to a down (or
// just-rebooting) node fails with a wrapped ErrPeerDown instead of
// blocking forever. until bounds the whole handshake in virtual time.
// A fresh dial registers fresh MRs and exchanges fresh rkeys, so
// re-dialing after a peer crash naturally re-registers everything the
// old epoch invalidated. The half-built connection is closed on
// failure so nothing leaks. busy declares that the caller's calls poll
// busily, asking the server for a busy dispatcher (Server.grantBusy).
func (e *Engine) TryDial(p *sim.Proc, target *simnet.Node, port string, busy bool, until sim.Time) (*Conn, error) {
	ep, err := e.node.TryConnect(p, target, port)
	if err != nil {
		return nil, fmt.Errorf("engine: dial node %d: %v: %w", target.ID(), err, ErrPeerDown)
	}
	c := e.newConn(false, &connShared{rndv: make(map[uint64]verbs.RKey)})
	h := c.helloFor()
	h.busy = busy
	ep.Send(p, h, 256)
	raw, ok := ep.RecvUntil(p, until)
	if !ok {
		// The server crashed (or the hello was addressed to a previous
		// boot) before answering.
		c.Close()
		return nil, fmt.Errorf("engine: dial node %d: handshake timeout: %w", target.ID(), ErrPeerDown)
	}
	c.applyHello(raw.(*hello))
	return c, nil
}

// ---------------------------------------------------------------------------
// Event pump

// chargeDetect applies the completion-detection cost for the polling
// discipline: the busy-poll detection delay, or the interrupt wake.
func (c *Conn) chargeDetect(p *sim.Proc, busy bool) {
	cm := c.eng.dev.CostModel()
	cpu := c.eng.node.CPU
	if busy {
		p.Sleep(sim.Duration(cm.BusyDetectNs(cpu.LoadFactor())))
	} else {
		p.Sleep(sim.Duration(float64(cm.InterruptWakeNs) * cpu.LoadFactor()))
	}
}

// enterWait registers the busy-poll CPU load for the duration of a wait.
func (c *Conn) enterWait(busy bool) {
	if busy && !c.busyLoaded {
		c.eng.node.CPU.AddLoad(1)
		c.busyLoaded = true
	}
}

func (c *Conn) exitWait() {
	if c.busyLoaded {
		c.eng.node.CPU.RemoveLoad(1)
		c.busyLoaded = false
	}
}

// nextArrival blocks until a request (server) or response (client)
// arrives, processing protocol-internal control traffic (RTS/CTS/FIN)
// along the way.
func (c *Conn) nextArrival(p *sim.Proc, busy bool) Arrival {
	c.enterWait(busy)
	defer c.exitWait()
	for {
		if c.respQueue.Len() > 0 {
			// Queued by an earlier wait, which paid the detection charge.
			a := c.respQueue.Pop()
			c.eng.em.bytesRecvd.Add(int64(len(a.Payload)))
			return a
		}
		if c.pumpCompletions(p) > 0 {
			// One detection charge covers the whole drained batch: the
			// first finished arrival is returned, the rest stay queued.
			if c.respQueue.Len() > 0 {
				a := c.respQueue.Pop()
				c.chargeDetect(p, busy)
				c.eng.em.bytesRecvd.Add(int64(len(a.Payload)))
				return a
			}
			continue
		}
		if c.rfpPending {
			c.rfpPending = false
			h := getHdr(c.rfpInMR.View(0, hdrSize))
			if !c.fits(h, 0, 0) {
				c.rfpInMR.Drop(0, c.rfpInMR.Len())
				continue
			}
			c.noteCredits(h)
			payload := c.copyPayload(c.rfpInMR.View(hdrSize, int(h.length)))
			c.rfpInMR.Drop(0, hdrSize+int(h.length))
			c.chargeDetect(p, busy)
			c.eng.em.bytesRecvd.Add(int64(len(payload)))
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, Payload: payload}
		}
		c.sig.Wait(p)
	}
}

// waitCTSUntil pumps until the CTS for seq, the grant for an n-byte
// payload, arrives, queueing any unrelated arrivals. A non-zero until
// bounds the wait (virtual time; inside an attempt, waitUntil);
// it returns false on timeout (or on evidence that the attempt is lost,
// waitOver) with the seq's CTS flag left unset so a late CTS can still
// be consumed by a retry.
func (c *Conn) waitCTSUntil(p *sim.Proc, seq uint32, n int, busy bool, until sim.Time) bool {
	c.enterWait(busy)
	defer c.exitWait()
	if until != 0 {
		until = c.waitUntil(p.Now()+sim.Time(c.grantTime(n)), until)
	}
	defer c.armWake(until).Stop()
	for !c.ctsReady[seq] {
		if c.waitOver(p.Now(), until) {
			return false
		}
		if c.pumpCompletions(p) > 0 {
			continue
		}
		c.sig.Wait(p)
	}
	delete(c.ctsReady, seq)
	c.chargeDetect(p, busy)
	return true
}

// waitRead pumps until the READ with the given wrid completes, returning
// whether it succeeded. (A READ always completes: success, retry
// exhaustion after a drop, or a flush on an errored QP — so this wait
// needs no deadline of its own.) Unlike the other pumps it inspects
// completions one at a time: it returns on its own READ, so batching
// ahead of it would only reorder the charge.
func (c *Conn) waitRead(p *sim.Proc, wrid uint64, busy bool) bool {
	c.enterWait(busy)
	defer c.exitWait()
	for {
		if wc, ok := c.cq.TryPoll(); ok {
			if wc.Op == verbs.OpRead && wc.WRID == wrid {
				// A poll that failed says nothing about the request it polls
				// for: the fetch loop recovers and polls again, and only a
				// failed completion of the request itself (handleWC) is
				// evidence that it must be sent again.
				c.chargeDetect(p, busy)
				return wc.Status == verbs.WCSuccess
			}
			if a, done := c.handleWC(p, wc); done {
				c.respQueue.Push(a)
			}
			continue
		}
		c.sig.Wait(p)
	}
}

// handleWC interprets one completion. It returns (arrival, true) when the
// completion finishes an application-level message.
func (c *Conn) handleWC(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	if wc.Status != verbs.WCSuccess {
		c.noteFault(wc)
		if wc.Status == verbs.WCRNRRetryExceeded {
			// The peer's RECV ring stayed exhausted through the whole RNR
			// retry budget. A credit-respecting sender never sees this.
			c.eng.em.rnrFailures.Inc()
			if trc := c.eng.trc; trc != nil {
				trc.Instant("engine", "rnr_retry_exceeded", c.eng.node.ID(), c.id,
					int64(p.Now()), obs.Arg{K: "wrid", V: wc.WRID})
			}
		}
		// Failed work request (retry-exceeded or flushed on an errored
		// QP). If it was a Read-RNDV pull, reclaim its control state: no
		// data arrived, so the destination buffer can rejoin the pool.
		if wc.Op == verbs.OpRead {
			if rts, ok := c.pendingReads[wc.WRID]; ok {
				delete(c.pendingReads, wc.WRID)
				if buf, ok := c.rndvIn[rts.seq]; ok {
					delete(c.rndvIn, rts.seq)
					c.eng.releaseRndv(buf)
				} else {
					c.releaseOrphan(c.orphanIn, rts.seq)
				}
			}
		}
		return Arrival{}, false
	}
	switch wc.Op {
	case verbs.OpRecv:
		if wc.HasImm {
			return c.handleWriteImm(p, wc)
		}
		return c.handleRecvSlot(p, wc)
	case verbs.OpRead:
		if rts, ok := c.pendingReads[wc.WRID]; ok {
			delete(c.pendingReads, wc.WRID)
			buf, live := c.rndvIn[rts.seq]
			if !live {
				// The call was aborted while this pull was in flight; the
				// data arrived too late to matter. Release the orphaned
				// buffer and still FIN so the peer frees its exposed one.
				if obuf, ok := c.orphanIn[rts.seq]; ok {
					delete(c.orphanIn, rts.seq)
					c.eng.releaseRndv(obuf)
					c.postSmall(p, hdr{kind: kFin, proto: rts.proto, seq: rts.seq})
				}
				return Arrival{}, false
			}
			// Read-RNDV pull completed: the pulled buffer carries the
			// original [hdr|payload] (the RTS only announced it).
			delete(c.rndvIn, rts.seq)
			h := getHdr(buf.View(0, hdrSize))
			if h.seq != rts.seq || h.length != rts.length {
				// The peer let go of the exposure before this pull read it
				// (a retransmitted RTS of a seq already pulled and FINed),
				// and reused it: what landed is part of another message.
				c.eng.em.droppedHeaders.Inc()
				c.eng.releaseRndv(buf)
				c.postSmall(p, hdr{kind: kFin, proto: rts.proto, seq: rts.seq})
				return Arrival{}, false
			}
			c.noteCredits(h)
			payload := c.copyPayload(buf.View(hdrSize, int(h.length)))
			c.eng.releaseRndv(buf)
			c.postSmall(p, hdr{kind: kFin, proto: h.proto, seq: h.seq})
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, Payload: payload}, true
		}
		return Arrival{}, false
	default:
		// Send-side completions carry no application event.
		return Arrival{}, false
	}
}

// fragState accumulates a segmented eager message. seen dedups fragment
// offsets so a retransmitted fragment (same seq, same off) can neither
// double-count got nor mask a hole.
type fragState struct {
	h    hdr
	buf  []byte
	got  int
	seen map[uint32]bool
}

// repostSlot recycles a consumed ring slot.
func (c *Conn) repostSlot(p *sim.Proc, wrid uint64) {
	c.qp.PostRecv(verbs.RecvWR{
		WRID: wrid,
		SGE:  verbs.SGE{MR: c.eagerMR, Off: int(wrid) * c.slotSize, Len: c.slotSize},
	})
	c.noteRepost(p)
}

// handleRecvSlot processes a two-sided SEND landing in an eager ring slot.
func (c *Conn) handleRecvSlot(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	buf := c.eagerMR.View(int(wc.WRID)*c.slotSize, wc.ByteLen)
	h := getHdr(buf)
	c.noteCredits(h)
	// Recycle the ring slot after extracting the fragment. This is the
	// ONLY repost for this slot regardless of what the message turns out
	// to be (data, control, duplicate, or a request later shed by
	// admission control) — the repost happens before the message is
	// interpreted, so shedding can neither skip nor double it.
	frag := c.copyPayload(buf[hdrSize:])
	c.repostSlot(p, wc.WRID)
	switch h.kind {
	case kReq, kResp:
		// Eager delivery: per-slot management cost plus the copy out of
		// the ring slot.
		cm := c.eng.dev.CostModel()
		c.eng.node.CPU.Compute(p, c.eng.node.NUMAWork(sim.Duration(cm.EagerSlotMgmtNs), c.numaBound))
		c.memcpyCharge(p, len(frag))
		if h.kind == kReq && c.isDup(h.seq) {
			// Retransmission of the request this connection just had
			// served (its response was lost). Drop any partial
			// re-assembly and surface one dup arrival (on the first
			// fragment only) so the dispatcher's dedup path resends the
			// cached response.
			delete(c.frags, h.seq)
			c.Recycle(frag)
			if h.off == 0 {
				return Arrival{Kind: kReq, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, dup: true}, true
			}
			return Arrival{}, false
		}
		if int(h.length) == len(frag) && h.off == 0 {
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, Payload: frag}, true
		}
		// Segmented message: accumulate until complete, in the buffer the
		// first fragment to arrive sized.
		st := c.frags[h.seq]
		sized := h
		if st != nil {
			sized = st.h
		}
		if !c.fits(sized, int(h.off), len(frag)) || st != nil && st.seen[h.off] {
			c.Recycle(frag)
			return Arrival{}, false // a header that does not fit, or a duplicate fragment from a retransmission
		}
		if st == nil {
			st = &fragState{h: h, buf: c.eng.dev.Get(int(h.length)), seen: make(map[uint32]bool)}
			c.frags[h.seq] = st
		}
		st.seen[h.off] = true
		copy(st.buf[h.off:], frag)
		st.got += len(frag)
		c.Recycle(frag)
		if st.got < len(st.buf) {
			return Arrival{}, false
		}
		delete(c.frags, h.seq)
		return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, Payload: st.buf}, true
	case kNotify:
		// Direct-Write-Send: payload already written into directMR.
		return c.direct()
	case kRTS:
		return c.handleRTS(p, h)
	case kCTS:
		c.ctsReady[h.seq] = true
		return Arrival{}, false
	case kErr, kDrain, kBig:
		// Typed rejection (header-only): surface it so the caller's
		// response wait maps it to its error (rejectErr).
		return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq}, true
	case kFin:
		if buf, ok := c.rndvOut[h.seq]; ok {
			delete(c.rndvOut, h.seq)
			delete(c.shared.rndv, rndvKey(h.seq, c.server))
			c.eng.releaseRndv(buf)
		} else if buf, ok := c.orphanOut[h.seq]; ok {
			// FIN for a call aborted mid-rendezvous: the peer's pull
			// finally finished, so the orphaned exposure can be freed.
			delete(c.orphanOut, h.seq)
			delete(c.shared.rndv, rndvKey(h.seq, c.server))
			c.eng.releaseRndv(buf)
		}
		return Arrival{}, false
	}
	return Arrival{}, false
}

// handleRTS reacts to a rendezvous request-to-send, which carries the
// resolved protocol whose leg sent it. Retransmitted RTSes (the
// reliability layer resends with the same seq) are idempotent: an
// existing grant is re-announced rather than re-allocated, an in-flight
// pull is left alone, and an RTS for an already-served request surfaces
// a dup arrival so the dispatcher resends the cached response.
func (c *Conn) handleRTS(p *sim.Proc, h hdr) (Arrival, bool) {
	// A prior loss may have erred this QP (a dropped CTS or READ errors
	// its owner); cycle it back before posting the grant or the pull, or
	// every response below would flush and the handshake could never make
	// progress. No-op on a healthy QP.
	c.recoverQP(p)
	if c.server && c.isDup(h.seq) {
		return Arrival{Kind: kReq, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, dup: true}, true
	}
	if !c.fits(h, 0, 0) {
		return Arrival{}, false
	}
	if h.proto.row().req == legReadRNDV {
		if _, ok := c.rndvIn[h.seq]; ok {
			return Arrival{}, false // duplicate RTS: the pull is in flight
		}
		// Pull the payload from the buffer exposed by the sender (peer).
		rk, ok := c.shared.rndv[rndvKey(h.seq, !c.server)]
		if !ok {
			// Stale RTS: the sender aborted and withdrew the exposure.
			return Arrival{}, false
		}
		buf := c.eng.acquireRndv(p, int(h.length)+hdrSize)
		c.rndvIn[h.seq] = buf
		id := c.wrid()
		c.pendingReads[id] = h
		c.qp.PostSend(p, &verbs.SendWR{
			WRID: id, Op: verbs.OpRead,
			SGE:    verbs.SGE{MR: buf, Off: 0, Len: int(h.length) + hdrSize},
			Remote: rk,
		})
		return Arrival{}, false
	}
	if _, ok := c.rndvIn[h.seq]; ok {
		// Duplicate RTS: the CTS was lost. The buffer is already
		// granted — just re-announce it.
		c.postSmall(p, hdr{kind: kCTS, proto: h.proto, seq: h.seq})
		return Arrival{}, false
	}
	// Write-RNDV: expose a pool buffer and grant. The entry is keyed by
	// the *sender's* side (our peer).
	buf := c.eng.acquireRndv(p, int(h.length)+hdrSize)
	c.rndvIn[h.seq] = buf
	c.shared.rndv[rndvKey(h.seq, !c.server)] = buf.RKey()
	c.postSmall(p, hdr{kind: kCTS, proto: h.proto, seq: h.seq})
	return Arrival{}, false
}

// handleWriteImm processes a WRITE_WITH_IMM completion: either a direct
// message in directMR or a rendezvous payload landing in a granted
// buffer.
func (c *Conn) handleWriteImm(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	// The consumed zero-length recv slot is recycled.
	c.repostSlot(p, wc.WRID)
	if wc.Imm == immDirect {
		return c.direct()
	}
	seq := wc.Imm
	buf, ok := c.rndvIn[seq]
	if !ok {
		// Late WRITE_IMM for an aborted call: free the orphaned grant.
		// (A duplicate for an already-completed seq lands here too — the
		// data went to a revoked buffer and was discarded by the NIC.)
		c.releaseOrphan(c.orphanIn, seq)
		return Arrival{}, false
	}
	delete(c.rndvIn, seq)
	h := getHdr(buf.View(0, hdrSize))
	c.noteCredits(h)
	payload := c.copyPayload(buf.View(hdrSize, int(h.length)))
	delete(c.shared.rndv, rndvKey(seq, !c.server))
	c.eng.releaseRndv(buf)
	return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, Payload: payload}, true
}

// direct delivers the message in the direct region. It is lent where it
// lies (verbs.MR.Lend), header and all, until the next call or the
// handler returns: the caller sends nothing more into the region before
// then. A header whose length overruns the region is dropped (fits).
func (c *Conn) direct() (Arrival, bool) {
	h := getHdr(c.directMR.View(0, hdrSize))
	if !c.fits(h, 0, 0) {
		return Arrival{}, false
	}
	c.noteCredits(h)
	a := Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq}
	if h.length > 0 {
		a.Payload = c.directMR.Lend(0, hdrSize+int(h.length))[hdrSize:]
		c.win = &a.Payload[0]
	}
	return a, true
}

// fits reports whether n bytes at off lie inside a message of h's length,
// and that length inside MaxMsgSize, which every region and buffer a
// message is read from or into holds. A header is the peer's word, and a
// stale or torn one says what it likes: one that does not fit is dropped,
// as a stale arrival is, rather than trusted to size or index a buffer.
func (c *Conn) fits(h hdr, off, n int) bool {
	ok := int(h.length) <= c.eng.cfg.MaxMsgSize && off+n <= int(h.length)
	if !ok {
		c.eng.em.droppedHeaders.Inc()
	}
	return ok
}

// postSmall sends a header-only control message through the eager ring.
// Control traffic spends a credit without blocking: it is issued from
// pump context where blocking would deadlock, and the per-connection
// reserve (see flowState) absorbs the overdraft. Consecutive control
// messages take turns at the staging region's two header slots, so one
// still on the wire (a Read-RNDV FIN, then the next call's RTS) is not
// written over and costs the NIC no copy (verbs.MR.Claim).
func (c *Conn) postSmall(p *sim.Proc, h hdr) {
	c.spend()
	off := stageMsgOff
	if c.ctlTail = !c.ctlTail; c.ctlTail {
		off = stageNotifyOff
	}
	c.putHdrC(c.stageMR.Claim(off, hdrSize), h)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpSend,
		SGE:        verbs.SGE{MR: c.stageMR, Off: off, Len: hdrSize},
		Inline:     true,
		Unsignaled: true,
	})
}
