// Package verbs is a functional, virtual-time simulation of the RDMA
// verbs user-space API: protection domains, registered memory regions,
// reliable-connected queue pairs, completion queues with busy and event
// polling, two-sided SEND/RECV and one-sided WRITE / READ /
// WRITE_WITH_IMM, inline sends, and chained work requests.
//
// Data really moves, by reference: a WRITE lands its bytes in the remote
// memory region, and a SEND in the buffer named by the consumed RECV WQE,
// as a record of where they lie in the sender's region; reading the
// destination reads them there, and they are copied in only if the
// sender writes them over first (MR). Time is virtual: every doorbell,
// WQE fetch, DMA, wire serialization, completion and interrupt is charged
// per the CostModel, so protocol comparisons reproduce the relative
// behaviour measured on real hardware while remaining deterministic. Like
// an RC NIC, the device moves a message as PathMTU packets and overlaps
// their fetch, wire and placement.
package verbs

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"runtime"

	"hatrpc/internal/hatdebug"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Opcode identifies a work-request or completion type.
type Opcode int

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpSendImm
	OpWrite
	OpWriteImm
	OpRead
	OpRecv // completion-side only
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpSendImm:
		return "SEND_WITH_IMM"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_WITH_IMM"
	case OpRead:
		return "READ"
	case OpRecv:
		return "RECV"
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Device is the simulated RNIC of one node. All QPs, CQs and MRs hang off
// a device; a single FIFO send engine per device models the NIC's WQE
// processing pipeline.
type Device struct {
	node *simnet.Node
	cm   *CostModel
	env  *sim.Env

	// The send engine (txPoll): a chain of scheduler callbacks, one
	// pending at a time in txTimer.
	txq     sim.FIFO[*packet]
	txIdle  bool         // waiting for a doorbell
	txRings int          // doorbells rung while it was not waiting
	txPkt   *packet      // the WR between its fetch and its hand-off
	txRest  sim.Duration // how much longer txPkt's DMA fetch takes
	txTimer sim.Timer

	txPollFn, txFetchedFn, txSendFn, txReadFn func() // bound once

	nextMR uint32
	nextQP uint32

	// Recycled work requests (see packet) and the node's byte arena (Get,
	// Put).
	freePkts  []*packet
	freeHolds []*hold
	freeBufs  [payloadClasses][][]byte

	// Crash lifecycle: a device belongs to one boot of its node. epoch is
	// the node epoch it was opened in (stamped into every RKey it mints);
	// dead is set by the node's crash hook and never cleared — a restart
	// opens a fresh Device rather than reviving this one.
	epoch uint64
	dead  bool
	qps   []*QP
	cqs   []*CQ

	vm  verbsMetrics // all nil (no-ops) until SetObs
	trc *obs.Tracer  // nil unless the registry carries a tracer
}

// verbsMetrics caches the device's instrument pointers so hot paths pay
// an array index instead of a registry lookup.
type verbsMetrics struct {
	tx         [opRecvBound]*obs.Counter // WQEs processed, by opcode
	cqe        [opRecvBound]*obs.Counter // completions delivered, by opcode
	inline     *obs.Counter              // inline sends (no host-DMA fetch)
	dma        *obs.Counter              // sends paying the host-DMA fetch
	copies     *obs.Counter              // payloads copied because the host wrote their range before they landed (MR.Claim)
	landCopies [landCounted]*obs.Counter // ranges landed by reference and copied in after all, by cause
	moves      *obs.Counter              // regions moved away from a lent window (MR.Claim)
	rnrNaks    *obs.Counter              // RNR NAKs generated as a receiver
	doorbells  *obs.Counter              // PostSend doorbells: one per chain, however many WRs it links
}

const opRecvBound = int(OpRecv) + 1

// SetObs attaches an observability registry to the device: per-opcode
// WQE and completion counters, inline-vs-DMA accounting, and — when the
// registry carries a tracer — doorbell→completion spans for signaled
// work requests. Counters are shared by name across devices attached to
// the same registry. Pass nil to detach.
func (d *Device) SetObs(r *obs.Registry) {
	m := verbsMetrics{
		inline:    r.Counter("verbs.tx.inline"),
		dma:       r.Counter("verbs.tx.dma"),
		rnrNaks:   r.Counter("verbs.rnr_naks"),
		doorbells: r.Counter("verbs.doorbells"),
		copies:    r.Counter("verbs.payload_copies"),
		moves:     r.Counter("verbs.region_moves"),
		landCopies: [landCounted]*obs.Counter{
			landWrite:      r.Counter("verbs.landing_copies.write"),
			landRead:       r.Counter("verbs.landing_copies.read"),
			landDeregister: r.Counter("verbs.landing_copies.deregister"),
		},
	}
	for op := 0; op < opRecvBound; op++ {
		m.tx[op] = r.Counter("verbs.tx." + Opcode(op).String())   //hatlint:allow obsnames -- suffix bounded by the Opcode enum
		m.cqe[op] = r.Counter("verbs.cqe." + Opcode(op).String()) //hatlint:allow obsnames -- suffix bounded by the Opcode enum
	}
	d.vm = m
	d.trc = r.Tracer()
}

// OpenDevice attaches a simulated RNIC to the node and starts its
// processing engines.
func OpenDevice(node *simnet.Node, cm *CostModel) *Device {
	if cm == nil {
		cm = DefaultCostModel()
	}
	d := &Device{node: node, cm: cm, env: node.Cluster().Env(), epoch: node.Epoch()}
	d.txPollFn, d.txFetchedFn, d.txSendFn, d.txReadFn = d.txPoll, d.txFetched, d.txSend, d.txRead
	d.txAt(d.env.Now(), d.txPollFn)
	node.OnCrash(d.crash)
	return d
}

// crash is the node's power-loss hook: the NIC loses all protection
// state. Every QP enters the error state with its receive side cleared,
// every CQ drops undelivered completions, and the device is dead for
// good — packets addressed to it (or rkeys minted by it) fail at the
// surviving peer. The packets it still held, unsent or unmatched, are
// released. Registered via Node.OnCrash in OpenDevice.
func (d *Device) crash() {
	if d.dead {
		return
	}
	d.dead = true
	d.txTimer.Stop()
	d.txIdle = false
	if d.txPkt != nil {
		d.txPkt.release()
		d.txPkt = nil
	}
	for d.txq.Len() > 0 {
		d.txq.Pop().release()
	}
	for _, qp := range d.qps {
		qp.errored = true
		qp.recvq.Clear()
		for qp.pending.Len() > 0 {
			qp.pending.Pop().release()
		}
	}
	for _, cq := range d.cqs {
		cq.done, cq.head = nil, 0
	}
}

// Dead reports whether the device's node has crashed since OpenDevice.
func (d *Device) Dead() bool { return d.dead }

// Epoch returns the node boot epoch this device was opened in. RKeys
// minted by the device are tagged with it, so credentials from an
// earlier boot can be rejected after a crash–restart.
func (d *Device) Epoch() uint64 { return d.epoch }

// Node returns the node this device is attached to.
func (d *Device) Node() *simnet.Node { return d.node }

// CostModel returns the device's hardware constants.
func (d *Device) CostModel() *CostModel { return d.cm }

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// PD is a protection domain.
type PD struct {
	dev *Device
}

// Device returns the owning device.
func (pd *PD) Device() *Device { return pd.dev }

// MR is a registered memory region. Its host memory is allocated as it is
// touched (grow): a region costs the simulator what it holds, not its
// size.
//
// The NIC moves bytes by reference (DESIGN.md §18). A posted payload is a
// window onto its source range, read where it lies; when it lands, the
// destination records the range as landed from that window instead of
// copying it, and a read of the destination reads the source. Both are
// holds on the source region (hold). Whoever writes a region — the host,
// or the NIC landing a payload in it — therefore writes through Claim,
// which first lets go of every hold on the range: a packet in flight
// takes a copy of its bytes, a landed range is copied into its
// destination, and a range landed here is dropped, since its bytes are
// being replaced. A window lent to the host to read where it lies (Lend)
// is kept by moving the region it lies in away from a claim.
type MR struct {
	pd      *PD
	buf     []byte // the region's first len(buf) bytes; past them, a byte no landed range holds reads zero
	size    int
	lkey    uint32
	onWrite func(off, n int)
	revoked bool
	held    *hold  // the holds on buf: packets in flight and ranges landed elsewhere (hold.src)
	landed  *hold  // the ranges landed here by reference (hold.dst)
	hi      int    // no byte at or past hi was ever claimed: all are zero
	lent    []byte // the window lent to the host (Lend); nil when none
	lentOff int    // where lent lies in the region, unless moved
	lentRef *hold  // the landed range lent, when lent is its source window
	moved   bool   // the region has moved away from lent's array
}

// grow makes the region's memory reach at least its first end bytes. No
// byte at or past hi was ever claimed, so the memory needs to reach only
// as far as the region has been touched: it at least doubles, up to the
// region's size, and only the bytes below hi are copied over. A growth is
// a move (move) that writes no byte of the region, and is not counted as
// one.
func (mr *MR) grow(end int) {
	if end <= len(mr.buf) {
		return
	}
	b := make([]byte, min(mr.size, max(end, 2*len(mr.buf))))
	copy(b, mr.buf[:min(mr.hi, len(mr.buf))])
	mr.rebase(b)
}

// rebase gives the region the array b, which holds the bytes of the one
// it replaces but for any a claimer is about to write. The holds read b,
// but for a lent one, which keeps the old array and leaves the region's
// holds, as a window of the region's own bytes lent to its host does.
func (mr *MR) rebase(b []byte) {
	for h := mr.held; h != nil; {
		next := h.next
		if h.lent {
			h.unlinkSrc()
		} else {
			h.b = b[h.srcOff : h.srcOff+len(h.b)]
			if h.pkt != nil {
				h.pkt.payload = h.b
			}
		}
		h = next
	}
	mr.buf, mr.moved = b, true
}

// Bytes returns the region's memory for reading, once every range landed
// in it by reference has been copied in. Read a part with View, which
// copies nothing a reference holds whole; write through Claim.
func (mr *MR) Bytes() []byte {
	if mr.landed != nil {
		mr.cut(0, mr.size, landRead)
	}
	mr.grow(mr.size)
	return mr.buf
}

// View returns the n bytes at off for reading: the source window of the
// one landed range that holds them all, else the region's own bytes once
// the landed ranges among them are copied in. Read it before the caller
// yields: a window is valid only until either region is next written.
func (mr *MR) View(off, n int) []byte {
	if h := mr.cover(off, n); h != nil {
		h.check()
		i := off - h.dstOff
		return h.b[i : i+n : i+n]
	}
	mr.cut(off, n, landRead)
	mr.grow(off + n)
	return mr.buf[off : off+n]
}

// Drop lets go of the ranges landed by reference among the n bytes at
// off without copying them in: the host has copied out what it needed
// and reads none of the n bytes again before they are next written, so
// a write of their source no longer has to copy them here first.
func (mr *MR) Drop(off, n int) {
	if mr.landed != nil {
		mr.cut(off, n, landDrop)
	}
}

// Allocated returns how many bytes of host memory the region holds.
func (mr *MR) Allocated() int { return len(mr.buf) }

// IsAt reports whether b starts at off in the region's memory, as a slice
// of it that Claim returned does until the region next moves or grows.
func (mr *MR) IsAt(off int, b []byte) bool {
	return len(b) > 0 && off < len(mr.buf) && &b[0] == &mr.buf[off]
}

// Claim returns the n bytes at off for writing, once the holds on them
// have let go (claim).
func (mr *MR) Claim(off, n int) []byte {
	mr.grow(off + n)
	mr.claim(off, n)
	return mr.buf[off : off+n]
}

// claim readies the n bytes at off to be written: a packet in flight that
// reads any of them is given an arena copy of its whole payload, a range
// landed elsewhere from them is copied into its destination, and the
// ranges landed among them are dropped, since the claimer writes all n.
// A claim that would write a lent window moves the region first (Lend).
// It allocates nothing the region does not hold already, so a range
// landed by reference takes no memory where it lands.
func (mr *MR) claim(off, n int) {
	lentHit := mr.held != nil && mr.release(off, n, landWrite)
	mr.Drop(off, n)
	if lentHit || mr.lent != nil && mr.lentRef == nil && !mr.moved && off < mr.lentOff+len(mr.lent) && mr.lentOff < off+n {
		mr.move(off, n)
	}
	mr.hi = max(mr.hi, off+n)
}

// release lets go of the holds on the n bytes at off before they are
// written, and reports whether a lent one reads any of them: only a move
// keeps that one's bytes.
func (mr *MR) release(off, n int, cause landCause) (lentHit bool) {
	for h := mr.held; h != nil; {
		next := h.next
		if h.srcOff < off+n && off < h.srcOff+len(h.b) {
			switch {
			case h.pkt != nil:
				h.pkt.own()
			case h.lent:
				lentHit = true
			default:
				h.copyIn(cause, 0, 0)
				h.free()
			}
		}
		h = next
	}
	return lentHit
}

// cut takes the ranges landed here out of the n bytes at off: copied in
// first, unless the cause is a claim, whose claimer writes all n. A lent
// range leaves the region to its loan, copied in but for the bytes a
// claim writes.
func (mr *MR) cut(off, n int, cause landCause) {
	for h := mr.landed; h != nil; {
		next := h.dnext
		if lo, hi := h.dstOff, h.dstOff+len(h.b); lo < off+n && off < hi {
			if h.lent {
				if cause != landDrop {
					h.copyIn(cause, 0, 0)
				} else if lo < off || off+n < hi {
					h.copyIn(landWrite, off-lo, n) // of the region, around the loan
				}
				h.unlinkDst()
			} else {
				if lo < off {
					h = h.split(off)
				}
				if off+n < hi {
					h.split(off + n)
				}
				if cause != landDrop {
					h.copyIn(cause, 0, 0)
				}
				h.free()
			}
		}
		h = next
	}
}

// cover returns the landed range that holds all n bytes at off, if one
// does.
func (mr *MR) cover(off, n int) *hold {
	for h := mr.landed; h != nil; h = h.dnext {
		if h.dstOff <= off && off+n <= h.dstOff+len(h.b) {
			return h
		}
	}
	return nil
}

// move gives the region a fresh array of the memory it holds, leaving the
// lent windows in the old one. Every byte outside the n at off is carried
// over — copied below hi, zero in both arrays past it, so a move costs
// what the region holds, not its size. The holds that read none of those
// n bytes (Claim let go of the others) read the fresh array (rebase).
func (mr *MR) move(off, n int) {
	old := mr.buf
	b, hi := make([]byte, len(old)), min(mr.hi, len(old))
	copy(b[:min(off, hi)], old)
	if off+n < hi {
		copy(b[off+n:hi], old[off+n:])
	}
	mr.rebase(b)
	mr.pd.dev.vm.moves.Inc()
}

// Lend lends the host the n bytes at off to read where they lie, until
// EndLend: the source window itself when one landed range holds them all,
// else the region's own bytes, once the landed ranges among them are
// copied in (always, in a hatdebug build, whose EndLend poisons the
// window). A claim that would write the window moves the region it lies
// in first, so the window keeps its bytes. A region lends one window at a
// time; a Lend while one is lent lends the new one instead.
func (mr *MR) Lend(off, n int) []byte {
	// A loan this one replaces ends: an ordinary landing again, or gone
	// if only the loan kept it.
	if h := mr.lentRef; h != nil {
		mr.lentRef, h.lent = nil, false
		if h.dst == nil {
			h.free()
		}
	}
	mr.lent, mr.lentOff, mr.moved = nil, off, false
	if h := mr.cover(off, n); h != nil && !hatdebug.On {
		if h.dstOff < off {
			h = h.split(off)
		}
		if off+n < h.dstOff+len(h.b) {
			h.split(off + n)
		}
		h.lent, mr.lentRef, mr.lent = true, h, h.b[:n:n]
		return mr.lent
	}
	cause := landRead
	if hatdebug.On && mr.cover(off, n) != nil {
		cause = landSanitizer
	}
	mr.cut(off, n, cause)
	mr.grow(off + n)
	mr.lent, mr.moved = mr.buf[off:off+n:off+n], false
	return mr.lent
}

// EndLend ends the loan, if any. A lent landed range is dropped: what was
// lent is not read again. A hatdebug build poisons a window of the
// region's own bytes, in the region or in the array the region moved away
// from, which is left to the garbage collector.
func (mr *MR) EndLend() {
	if h := mr.lentRef; h != nil {
		mr.lent, mr.lentRef = nil, nil
		h.free()
		return
	}
	w, moved := mr.lent, mr.moved
	mr.lent, mr.moved = nil, false
	if hatdebug.On && w != nil && !moved {
		w = mr.Claim(mr.lentOff, len(w))
	}
	hatdebug.Poison(w)
}

// Deregister ends the host's registration of the region: its memory may
// be reused from now on, so every hold on it lets go as Claim makes it —
// a packet in flight takes its copy, a range landed elsewhere is copied
// into its destination — and a lent window keeps its bytes in the array
// the region moves away from. Ranges landed here are copied in. Remote
// access is left as it is (SetRevoked).
func (mr *MR) Deregister() {
	if mr.release(0, mr.size, landDeregister) {
		mr.move(0, 0)
	}
	mr.cut(0, mr.size, landDeregister)
}

// SetRevoked marks the region's remote access as withdrawn (or restores
// it). While revoked, an inbound one-sided WRITE is discarded and an
// inbound READ fails with a remote-access error at the initiator — the
// behaviour of a real rkey invalidation. Buffer pools revoke regions on
// release so a stale rkey held by an in-flight transfer can never
// corrupt a recycled buffer.
func (mr *MR) SetRevoked(b bool) { mr.revoked = b }

// SetWriteNotify registers a callback invoked whenever an inbound
// one-sided WRITE lands in this region, with the offset and length of the
// bytes it placed. Memory-polling protocols (HERD, RFP) use it as the
// simulation equivalent of a CPU spin loop observing the write: the
// *detection cost* is still charged by the poller. WRITEs land in
// posting order, each whole.
func (mr *MR) SetWriteNotify(fn func(off, n int)) { mr.onWrite = fn }

// RegisterMR pins and registers a fresh buffer of the given size,
// charging the registration cost to the calling process.
func (pd *PD) RegisterMR(p *sim.Proc, size int) *MR {
	mr := pd.RegisterMRNoCost(size)
	p.Sleep(sim.Duration(pd.dev.cm.RegisterTime(size)))
	return mr
}

// RegisterMRNoCost registers without charging time; for test fixtures. It
// allocates no host memory: the region's is allocated as it is touched.
func (pd *PD) RegisterMRNoCost(size int) *MR {
	pd.dev.nextMR++
	return &MR{pd: pd, size: size, lkey: pd.dev.nextMR}
}

// RKey is the remote-access handle an application exchanges out-of-band
// so peers can target this MR with one-sided operations. It is tagged
// with the boot epoch of the minting device: a credential issued by an
// earlier life of a rebooted node is recognized as stale and refused
// with WCRemoteInvalid, never silently honoured against recycled memory.
type RKey struct {
	mr    *MR
	epoch uint64
}

// RKey returns the remote-access handle for the region. A nil receiver
// yields the zero RKey, which no device honours — connections that skip
// optional published regions (NoFetchBufs) exchange zero handles.
func (mr *MR) RKey() RKey {
	if mr == nil {
		return RKey{}
	}
	return RKey{mr: mr, epoch: mr.pd.dev.epoch}
}

// rkeyValid reports whether rk is honoured by this device: the region
// must belong to this device and carry its boot epoch.
func (d *Device) rkeyValid(rk RKey) bool {
	return rk.mr != nil && rk.mr.pd.dev == d && rk.epoch == d.epoch
}

// Len returns the region size.
func (mr *MR) Len() int { return mr.size }

// WCStatus is the completion status of a work request.
type WCStatus int

const (
	// WCSuccess: the work request completed normally.
	WCSuccess WCStatus = iota
	// WCRetryExceeded: the RC transport exhausted its retries — the
	// message (or its response) was lost in the fabric. The owning QP has
	// transitioned to the error state.
	WCRetryExceeded
	// WCFlushed: the work request was posted to a QP already in the
	// error state and was flushed without touching the wire.
	WCFlushed
	// WCRNRRetryExceeded: every retransmission of a two-sided message
	// found the receiver without a posted RECV (RNR NAK each time) and
	// the configured rnr_retry budget ran out. The owning QP has
	// transitioned to the error state. Only raised on QPs with finite
	// RECV depth enabled via SetRNR.
	WCRNRRetryExceeded
	// WCRemoteInvalid: the responder NAKed the request as invalid — a
	// one-sided operation carried an rkey from an earlier boot epoch of
	// the target, or the target NIC rebooted and no longer knows the QP.
	// Unlike WCRetryExceeded this fails fast (one NAK round trip, no
	// retry window). The owning QP has transitioned to the error state.
	WCRemoteInvalid
)

func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "SUCCESS"
	case WCRetryExceeded:
		return "RETRY_EXC"
	case WCFlushed:
		return "FLUSH_ERR"
	case WCRNRRetryExceeded:
		return "RNR_RETRY_EXC"
	case WCRemoteInvalid:
		return "REMOTE_INVALID"
	}
	return fmt.Sprintf("WCStatus(%d)", int(s))
}

// WC is a work completion. Status is WCSuccess (zero) unless the work
// request failed; on failure ByteLen/Imm are meaningless.
type WC struct {
	WRID    uint64
	Op      Opcode
	ByteLen int
	Imm     uint32
	HasImm  bool
	Status  WCStatus
	QP      *QP
}

// CQ is a completion queue supporting both polling disciplines.
type CQ struct {
	dev *Device
	// done[head:] are the undelivered completions. Popping advances head
	// and a drained queue rewinds to the start of its backing array, so a
	// steady push/poll cycle allocates nothing.
	done   []WC
	head   int
	sig    *sim.Signal
	notify func()
}

// popN removes the n oldest completions (the queue holds as many) and
// returns them as a window onto the queue, valid until the next push.
func (cq *CQ) popN(n int) []WC {
	out := cq.done[cq.head : cq.head+n]
	if cq.head += n; cq.head == len(cq.done) {
		cq.done, cq.head = cq.done[:0], 0
	}
	return out
}

// SetNotify registers a callback invoked on every completion push, in
// addition to waking blocked pollers. Engines multiplexing several event
// sources (CQ + memory polling) use it to drive a combined wait signal.
func (cq *CQ) SetNotify(fn func()) { cq.notify = fn }

// QueuedRecvs counts successful RECV completions sitting in the queue,
// not yet polled. Each corresponds to a consumed-but-unrecycled receive
// WQE; leak assertions add this to the posted depth to account for every
// ring slot at quiescence.
func (cq *CQ) QueuedRecvs() int {
	n := 0
	for _, wc := range cq.done[cq.head:] {
		if wc.Op == OpRecv && wc.Status == WCSuccess {
			n++
		}
	}
	return n
}

// CreateCQ allocates a completion queue.
func (d *Device) CreateCQ() *CQ {
	cq := &CQ{dev: d, sig: sim.NewSignal(d.env)}
	d.cqs = append(d.cqs, cq)
	return cq
}

func (cq *CQ) push(wc WC) {
	if int(wc.Op) < opRecvBound {
		cq.dev.vm.cqe[wc.Op].Inc()
	}
	cq.done = append(cq.done, wc)
	cq.sig.Fire()
	if cq.notify != nil {
		cq.notify()
	}
}

// TryPoll returns one completion if immediately available.
func (cq *CQ) TryPoll() (WC, bool) {
	if cq.Depth() == 0 {
		return WC{}, false
	}
	return cq.popN(1)[0], true
}

// PollBusy spin-polls for the next completion. While waiting the caller
// occupies a core (registered as persistent CPU load), and the detection
// delay after a CQE lands scales with the node's load factor — this is
// what makes busy polling collapse under over-subscription (Fig. 5).
//
// A completion already sitting in the queue is returned immediately: the
// spinner's very first load observes the CQE, so no detection delay has
// elapsed and no persistent spin load is ever registered. The
// BusyDetectNs charge models the gap between a CQE *landing* and a
// spinning poller *noticing* it, which only exists when the poller was
// actually spinning on an empty CQ.
func (cq *CQ) PollBusy(p *sim.Proc) WC {
	if wc, ok := cq.TryPoll(); ok {
		return wc
	}
	cpu := cq.dev.node.CPU
	cpu.AddLoad(1)
	for cq.Depth() == 0 {
		cq.sig.Wait(p)
	}
	p.Sleep(sim.Duration(cq.dev.cm.BusyDetectNs(cpu.LoadFactor())))
	cpu.RemoveLoad(1)
	return cq.popN(1)[0]
}

// PollN drains up to len(out) immediately-available completions into out
// and returns how many were written. It never blocks and charges no
// detection cost — callers batch the per-wakeup charge themselves, once
// per wakeup rather than once per completion. A nil or empty out drains
// nothing.
func (cq *CQ) PollN(out []WC) int {
	n := min(len(out), cq.Depth())
	return copy(out, cq.popN(n))
}

// WaitEvent blocks for the next completion using the interrupt-driven
// path: no CPU is burned while waiting, but the wakeup pays the interrupt
// cost (scaled by load when the node is saturated).
func (cq *CQ) WaitEvent(p *sim.Proc) WC {
	for cq.Depth() == 0 {
		cq.sig.Wait(p)
	}
	cpu := cq.dev.node.CPU
	p.Sleep(sim.Duration(float64(cq.dev.cm.InterruptWakeNs) * cpu.LoadFactor()))
	return cq.popN(1)[0]
}

// Poll retrieves one completion with the given discipline.
func (cq *CQ) Poll(p *sim.Proc, busy bool) WC {
	if busy {
		return cq.PollBusy(p)
	}
	return cq.WaitEvent(p)
}

// Depth returns the number of undelivered completions.
func (cq *CQ) Depth() int { return len(cq.done) - cq.head }

// SGE is a scatter/gather element naming a slice of a registered region.
type SGE struct {
	MR  *MR
	Off int
	Len int
}

// SendWR is a send-queue work request. Chained requests (Next) are posted
// with a single doorbell.
type SendWR struct {
	WRID       uint64
	Op         Opcode
	SGE        SGE
	Remote     RKey // WRITE/READ/WRITE_IMM target
	RemoteOff  int
	Imm        uint32
	Inline     bool // payload copied at post time; skips DMA read
	Unsignaled bool
	Next       *SendWR
}

// RecvWR is a receive-queue work request.
type RecvWR struct {
	WRID uint64
	SGE  SGE
}

// QP is a reliable-connected queue pair.
type QP struct {
	dev      *Device
	id       uint32
	sendCQ   *CQ
	recvCQ   *CQ
	peer     *QP
	recvq    sim.FIFO[RecvWR]  // posted RECV WQEs, oldest first
	pending  sim.FIFO[*packet] // arrived SEND/WRITE_IMM packets awaiting a RECV WQE
	errored  bool              // retry-exceeded; posts flush until Recover
	rnrOn    bool              // finite RECV depth: NAK instead of buffering
	rnrRetry int               // retransmissions before WCRNRRetryExceeded

	// RC ordering under loss. gap is set the moment the fabric loses one
	// of this QP's packets: the responder sees a PSN gap and discards
	// everything behind it, so nothing the QP sends is delivered again
	// until Recover. gen counts recoveries; a work request posted before
	// the last one is flushed, never sent (the RESET walk empties the send
	// queue). lastArrive keeps a jittered fabric from reordering the QP's
	// packets.
	gap        bool
	gen        uint32
	lastArrive sim.Time
}

// CreateQP allocates a queue pair bound to the given completion queues.
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) *QP {
	d.nextQP++
	qp := &QP{dev: d, id: d.nextQP, sendCQ: sendCQ, recvCQ: recvCQ}
	d.qps = append(d.qps, qp)
	return qp
}

// ErrQPConnected is returned by Connect when the target QP is already
// paired with a different live peer. Tearing down an RC connection is
// explicit (crash, or QP error + Recover) — it never happens as a side
// effect of dialing.
var ErrQPConnected = errors.New("verbs: QP already connected to a live peer")

// Connect pairs two QPs (the RC connection). Applications exchange QP
// handles out-of-band (simnet endpoints) just as real code exchanges QPNs
// and LIDs, then both sides call Connect.
//
// Re-targeting a QP that is already connected to a different live peer
// fails with ErrQPConnected: silently re-pairing would orphan every
// RECV the old peer has posted against this connection. Reconnection is
// legitimate only when the old pairing is already dead — this QP is in
// the error state, or the old peer's device has crashed — which is
// exactly what the crash/Recover paths present. Connecting to the peer
// the QP is already paired with is an idempotent no-op.
func (qp *QP) Connect(peer *QP) error {
	if qp.peer != nil && qp.peer != peer && !qp.errored && !qp.peer.dev.dead {
		return ErrQPConnected
	}
	qp.peer = peer
	return nil
}

// Peer returns the connected remote QP.
func (qp *QP) Peer() *QP { return qp.peer }

// Device returns the owning device.
func (qp *QP) Device() *Device { return qp.dev }

// PostRecv posts a receive WQE. If a two-sided packet is already pending
// (arrived before the buffer), it is matched immediately. A posted buffer
// is the NIC's until its completion, so what landed in it by reference
// before is dropped: its bytes are not the host's to read any more.
func (qp *QP) PostRecv(wr RecvWR) {
	if qp.pending.Len() > 0 {
		qp.deliver(qp.pending.Pop(), wr)
		return
	}
	if mr := wr.SGE.MR; mr != nil {
		mr.Drop(wr.SGE.Off, wr.SGE.Len)
	}
	qp.recvq.Push(wr)
}

// takeRecv pops the oldest posted RECV WQE. ok is false when no buffer is
// posted.
func (qp *QP) takeRecv() (wr RecvWR, ok bool) {
	if qp.recvq.Len() == 0 {
		return RecvWR{}, false
	}
	return qp.recvq.Pop(), true
}

// SetRNR enables finite RECV depth on the QP: a two-sided message
// arriving with no posted RECV draws an RNR NAK instead of being
// buffered, and after retries retransmissions found the receiver still
// not ready the requester's work request fails with WCRNRRetryExceeded
// and the requester QP enters the error state. The zero value (RNR
// disabled) preserves the legacy infinite-buffering behaviour.
func (qp *QP) SetRNR(retries int) {
	qp.rnrOn = true
	qp.rnrRetry = retries
}

// RecvDepth returns the number of posted-but-unconsumed RECV WQEs on
// the QP. Leak checks compare it against the ring size at quiesce.
func (qp *QP) RecvDepth() int { return qp.recvq.Len() }

// deliver completes a matched two-sided packet against the given RECV
// WQE. WRITE_WITH_IMM already placed its data in the WRITE target at
// arrival, so only the completion (carrying the immediate) is raised;
// SEND payloads land in the RECV buffer via completeRecv.
func (qp *QP) deliver(pkt *packet, wr RecvWR) {
	if pkt.kind == OpWriteImm {
		cm := qp.dev.cm
		pkt.cq = qp.recvCQ
		pkt.wc = WC{WRID: wr.WRID, Op: OpRecv, ByteLen: pkt.size, Imm: pkt.imm, HasImm: true, QP: qp}
		qp.dev.env.After(sim.Duration(cm.InboundServeNs+cm.CQEDmaNs), pkt.cqeFn)
		return
	}
	qp.completeRecv(pkt, wr)
}

// noRecv handles a two-sided arrival that found no posted RECV: an RNR
// NAK when finite depth is armed, otherwise the legacy infinite buffer.
func (qp *QP) noRecv(pkt *packet) {
	if qp.rnrOn {
		qp.dev.rnrNak(pkt, 0)
		return
	}
	qp.pending.Push(pkt)
}

// rnrNak models one receiver-not-ready NAK round: the responder NAKs,
// the requester backs off for the RNR timer and retransmits (one round
// trip later), and the responder re-attempts the RECV match. When the
// rnr_retry budget is exhausted the requester QP errors out and raises
// WCRNRRetryExceeded. Error completions are raised even for unsignaled
// work requests — as on real RNICs, where errors are never silent.
func (d *Device) rnrNak(pkt *packet, attempt int) {
	d.vm.rnrNaks.Inc()
	qp := pkt.dstQP
	wait := sim.Duration(d.cm.RnrTimerNs) + 2*d.node.Cluster().PropDelay()
	if attempt >= qp.rnrRetry {
		src := pkt.srcQP
		id, op := pkt.wrid, pkt.kind
		pkt.release()
		d.env.After(wait, func() {
			src.errored = true
			src.sendCQ.push(WC{WRID: id, Op: op, Status: WCRNRRetryExceeded, QP: src})
		})
		return
	}
	d.env.After(wait, func() {
		wr, ok := qp.takeRecv()
		if !ok {
			d.rnrNak(pkt, attempt+1)
			return
		}
		qp.deliver(pkt, wr)
	})
}

// Errored reports whether the QP is in the error state (a prior work
// request exhausted transport retries). Posts to an errored QP complete
// with WCFlushed until Recover is called.
func (qp *QP) Errored() bool { return qp.errored }

// Recover cycles an errored QP back to ready-to-send (the modify-QP
// RESET→INIT→RTR→RTS walk), charging the caller's CPU. The walk closes
// the PSN gap and flushes whatever the send queue still held. A no-op on
// a healthy QP.
func (qp *QP) Recover(p *sim.Proc) {
	if !qp.errored {
		return
	}
	qp.dev.node.CPU.Compute(p, sim.Duration(qp.dev.cm.QPRecoverNs))
	qp.errored = false
	qp.gap = false
	qp.gen++
}

// PostSend posts a work-request chain with one doorbell, charging the
// caller's CPU for the MMIO write. Each payload is read where it lies when
// its packet lands; a caller that writes its range before then through
// MR.Claim leaves the packet a copy of the post-time bytes, so it may
// reuse the buffers behind wr — and wr itself — as soon as PostSend
// returns. On an errored QP nothing reaches the wire: each signaled
// request in the chain completes with WCFlushed.
func (qp *QP) PostSend(p *sim.Proc, wr *SendWR) {
	if qp.peer == nil {
		panic("verbs: PostSend on unconnected QP")
	}
	d := qp.dev
	// One doorbell posts the entire chain (the Chained-Write-Send saving).
	d.vm.doorbells.Inc()
	d.node.CPU.Compute(p, sim.Duration(d.cm.DoorbellNs))
	if qp.errored {
		for w := wr; w != nil; w = w.Next {
			if !w.Unsignaled {
				qp.flushed(w.WRID, w.Op)
			}
		}
		return
	}
	doorbell := int64(d.env.Now())
	var site uintptr // the poster, named by the sanitizer (checkLanding)
	if hatdebug.On {
		var pc [1]uintptr
		runtime.Callers(2, pc[:])
		site = pc[0]
	}
	for w := wr; w != nil; w = w.Next {
		pkt := d.getPacket()
		pkt.kind, pkt.srcQP, pkt.gen = w.Op, qp, qp.gen
		pkt.remote, pkt.remoteOff = w.Remote, w.RemoteOff
		pkt.imm, pkt.wrid = w.Imm, w.WRID
		pkt.inline, pkt.signaled = w.Inline, !w.Unsignaled
		pkt.postTs, pkt.site = doorbell, site
		if w.Op == OpRead {
			pkt.readDst = w.SGE
		} else if w.SGE.Len > 0 {
			pkt.borrow(w.SGE.MR, w.SGE.Off, w.SGE.Len)
		}
		d.txq.Push(pkt)
		d.ring()
	}
}

// flushed raises the WCFlushed completion of a signaled work request that
// an errored or recovered QP never sent.
func (qp *QP) flushed(id uint64, op Opcode) {
	qp.dev.env.After(sim.Duration(qp.dev.cm.CQEDmaNs), func() {
		qp.sendCQ.push(WC{WRID: id, Op: op, Status: WCFlushed, QP: qp})
	})
}

// packet is one work request from doorbell to landing: PostSend fills it,
// the send engine fetches and transmits it, the fabric carries it and the
// responder's NIC lands it (a READ response is a second packet, minted by
// the responder). Packets and the payload copies some of them come to own
// are recycled through the free lists of the device that minted them,
// with the fabric and completion callbacks bound once per packet, so a
// steady stream of work requests allocates nothing. Whoever finishes with
// a packet releases it, lost and crashed ones included: a window it still
// held would make every later write of its range pay a copy.
type packet struct {
	kind  Opcode
	srcQP *QP
	dstQP *QP
	// payload is the message: the window h holds onto its source range
	// (borrow) until the packet lands or the host claims the range first,
	// then a copy the packet owns (own); nil for a READ request and once
	// placed. size is its length, kept after placement.
	payload     []byte
	h           *hold
	size        int
	remote      RKey
	remoteOff   int
	imm         uint32
	wrid        uint64 // initiator's WRID (kept across a READ round trip)
	inline      bool
	signaled    bool
	isReadResp  bool
	readDst     SGE      // READ: where the initiator wants the bytes
	postTs      int64    // initiator doorbell time, for doorbell→completion tracing
	site        uintptr  // initiator's PostSend caller (hatdebug)
	gen         uint32   // srcQP.gen at post; stale once the QP has recovered
	wire        int      // bytes the fabric carries, every packet's header included
	lastWire    int      // of which the last packet's
	firstArrive sim.Time // when the first packet reached the responder's port

	// Completion the packet raises once landed: cq receives wc.
	cq *CQ
	wc WC

	home                    *Device
	arriveFn, landFn, cqeFn func()
}

// hold is a range of a region read where it lies from outside the region
// (MR): by a packet in flight, which reads it when it lands, or by the
// range it landed in, which reads as those bytes until it is copied in or
// dropped. One list on the source region (MR.held) keeps both kinds: a
// write of the range first lets go of every hold on it (MR.Claim). Holds
// are recycled through the free list of the device whose packet minted
// them, so landing by reference allocates nothing.
type hold struct {
	src          *MR     // the source region; nil once it moved away from a lent hold
	srcOff       int     // where b lies in src
	b            []byte  // the bytes, where they lie
	prev, next   *hold   // src's other holds
	pkt          *packet // the packet in flight; nil once landed
	dst          *MR     // where it landed; nil in flight, and once only its loan keeps it
	dstOff       int
	dprev, dnext *hold // dst's other landed ranges
	lent         bool  // lent to dst's host (MR.Lend)
	home         *Device

	// The sanitizer's record: b as posted, and who posted it.
	shadow []byte
	op     string
	site   uintptr
}

// landCause is why a range landed by reference was copied in after all,
// or dropped. The causes below landCounted are counted
// (verbs.landing_copies.*).
type landCause int

const (
	landWrite      landCause = iota // its source was written (Claim), or its destination around a loan
	landRead                        // read other than through one landed range (Bytes, View, Lend, a post)
	landDeregister                  // either region was deregistered
	landDrop                        // its destination was claimed over it, posted to receive, or read out (Drop): dropped
	landSanitizer                   // a hatdebug Lend copies in what a plain build lends in place

	landCounted = landDrop
)

// getHold returns a recycled hold of the device, or a new one.
func (d *Device) getHold() *hold {
	if n := len(d.freeHolds); n > 0 {
		h := d.freeHolds[n-1]
		d.freeHolds[n-1] = nil
		d.freeHolds = d.freeHolds[:n-1]
		return h
	}
	return &hold{home: d}
}

func (h *hold) linkSrc() {
	if h.next = h.src.held; h.next != nil {
		h.next.prev = h
	}
	h.src.held = h
}

func (h *hold) linkDst() {
	if h.dnext = h.dst.landed; h.dnext != nil {
		h.dnext.dprev = h
	}
	h.dst.landed = h
}

// unlinkSrc takes the hold off its source region's holds.
func (h *hold) unlinkSrc() {
	if h.src == nil {
		return
	}
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		h.src.held = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	}
	h.src, h.prev, h.next = nil, nil, nil
}

// unlinkDst takes the hold off its destination's landed ranges.
func (h *hold) unlinkDst() {
	if h.dst == nil {
		return
	}
	if h.dprev != nil {
		h.dprev.dnext = h.dnext
	} else {
		h.dst.landed = h.dnext
	}
	if h.dnext != nil {
		h.dnext.dprev = h.dprev
	}
	h.dst, h.dprev, h.dnext = nil, nil, nil
}

// free unlinks the hold and returns it to its device. Nothing may use it
// afterwards; the next borrow sets what this leaves.
func (h *hold) free() {
	h.unlinkSrc()
	h.unlinkDst()
	h.b, h.pkt, h.lent = nil, nil, false
	h.home.freeHolds = append(h.home.freeHolds, h)
}

// land makes the hold the first n bytes' landing at off in dst.
func (h *hold) land(dst *MR, off, n int) {
	h.trim(0, n)
	h.pkt, h.dst, h.dstOff = nil, dst, off
	h.linkDst()
}

// trim keeps the hold's bytes [i, j).
func (h *hold) trim(i, j int) {
	h.b = h.b[i:j]
	h.srcOff += i
	h.dstOff += i
	if hatdebug.On {
		h.shadow = h.shadow[i:j]
	}
}

// split cuts a landed hold at k in its destination: it keeps the bytes
// before k and returns a new hold of the rest, landed and held alike.
func (h *hold) split(k int) *hold {
	i := k - h.dstOff
	r := h.home.getHold()
	r.src, r.srcOff, r.b = h.src, h.srcOff, h.b
	r.dst, r.dstOff, r.op, r.site = h.dst, h.dstOff, h.op, h.site
	if hatdebug.On {
		r.shadow = append(r.shadow[:0], h.shadow...)
	}
	r.trim(i, len(h.b))
	h.trim(0, i)
	if r.src != nil {
		r.linkSrc()
	}
	r.linkDst()
	return r
}

// copyIn copies a landed hold's bytes into its destination, where they
// were meant to land, but for those of its bytes [i, i+n) a claimer is
// about to write (i may be negative).
func (h *hold) copyIn(cause landCause, i, n int) {
	h.check()
	j := min(i+n, len(h.b))
	i = max(0, i)
	h.dst.grow(h.dstOff + len(h.b))
	copy(h.dst.buf[h.dstOff:h.dstOff+i], h.b)
	if j < len(h.b) {
		copy(h.dst.buf[h.dstOff+j:], h.b[j:])
	}
	if cause < landCounted {
		h.dst.pd.dev.vm.landCopies[cause].Inc()
	}
}

// check is the sanitizer's check, whenever the bytes a hold reads are
// read: they must be the ones posted. A mismatch means something wrote
// the range without MR.Claim.
func (h *hold) check() {
	if !hatdebug.On || bytes.Equal(h.b, h.shadow) {
		return
	}
	site := "unknown"
	if f, _ := runtime.CallersFrames([]uintptr{h.site}).Next(); f.File != "" {
		site = fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
	}
	mr, when := "an array its region moved away from", "between post and landing"
	if h.src != nil {
		mr = fmt.Sprintf("MR %d [%d, %d)", h.src.lkey, h.srcOff, h.srcOff+len(h.b))
	}
	if h.pkt == nil {
		when = "after landing by reference"
	}
	panic(fmt.Sprintf("verbs: %s payload in %s changed %s without MR.Claim; posted by %s", h.op, mr, when, site))
}

// PathMTU is the most payload one packet carries: the path MTU of the
// paper's EDR fabric. Every message crosses the wire as packets(n)
// packets, each with WireHeaderBytes of its own, and the NIC pipelines
// them: the wire takes a packet as soon as it is fetched, and the
// responder places each as it arrives, so of the DMA at either end only
// one packet's worth — the first fetched, the last placed — is not
// hidden behind the wire. The schedule is worked out per message from the
// gates (simnet.BandwidthGate.Stream); no event is spent per packet.
const PathMTU = 4096

// packets is how many packets carry an n-byte message (a message with no
// payload is one header-only packet).
func packets(n int) int { return max(1, (n+PathMTU-1)/PathMTU) }

// lastPacket is the payload of an n-byte message's last packet.
func lastPacket(n int) int { return n - (packets(n)-1)*PathMTU }

// owner is the QP whose retry timer a loss of this packet runs down: the
// initiator of a READ for its response, the sender for everything else.
func (pkt *packet) owner() *QP {
	if pkt.isReadResp {
		return pkt.dstQP
	}
	return pkt.srcQP
}

// arrive runs when the message's last packet reaches the responder's
// port. The RX gate has been taking the message since its first packet
// arrived, at firstArrive, as far as it was free to; it is done once the
// last packet has crossed it too.
func (pkt *packet) arrive() {
	remote := pkt.dstQP.dev
	rx := remote.node.RX
	_, rxDone := rx.Stream(pkt.firstArrive, pkt.wire, remote.env.Now()+sim.Time(rx.SerializationTime(pkt.lastWire)))
	remote.env.At(rxDone, pkt.landFn)
}

// land runs when the message's last byte has crossed the RX gate.
func (pkt *packet) land() { pkt.dstQP.dev.receive(pkt) }

// cqe raises the completion recorded in the packet, which is its last
// use.
func (pkt *packet) cqe() {
	cq, wc := pkt.cq, pkt.wc
	pkt.release()
	cq.push(wc)
}

func (d *Device) getPacket() *packet {
	if n := len(d.freePkts); n > 0 {
		pkt := d.freePkts[n-1]
		d.freePkts[n-1] = nil
		d.freePkts = d.freePkts[:n-1]
		return pkt
	}
	pkt := &packet{home: d}
	pkt.arriveFn, pkt.landFn, pkt.cqeFn = pkt.arrive, pkt.land, pkt.cqe
	return pkt
}

// release returns the packet, and the payload copy it owns, to the device
// that minted them. Nothing may hold the packet afterwards.
func (pkt *packet) release() {
	pkt.placed()
	d := pkt.home
	*pkt = packet{home: d, arriveFn: pkt.arriveFn, landFn: pkt.landFn, cqeFn: pkt.cqeFn}
	d.freePkts = append(d.freePkts, pkt)
}

// borrow makes the packet's payload the n bytes of mr at off, held where
// they lie until the packet lands — once the ranges landed among them by
// reference are copied in. The sanitizer keeps what they read now.
func (pkt *packet) borrow(mr *MR, off, n int) {
	if mr.landed != nil {
		mr.cut(off, n, landRead)
	}
	mr.grow(off + n)
	h := pkt.home.getHold()
	h.src, h.srcOff, h.b, h.pkt = mr, off, mr.buf[off:off+n], pkt
	h.linkSrc()
	pkt.h, pkt.payload, pkt.size = h, h.b, n
	if hatdebug.On {
		h.shadow, h.site, h.op = append(h.shadow[:0], h.b...), pkt.site, pkt.kind.String()
		if pkt.isReadResp {
			h.op = "READ response"
		}
	}
}

// own replaces the packet's window with an arena copy of the same bytes,
// before the host writes over them (MR.Claim).
func (pkt *packet) own() {
	h := pkt.h
	h.check()
	b := pkt.home.Get(pkt.size)
	copy(b, h.b)
	h.free()
	pkt.payload, pkt.h = b, nil
	pkt.home.vm.copies.Inc()
}

// place is the NIC landing the payload's first n bytes in dst at off. A
// window lands by reference: dst records the range as landed from it
// (hold), and nothing is copied until something needs the bytes where
// they were meant to land. An owned copy is copied in; the packet lets go
// of it then.
func (pkt *packet) place(dst *MR, off, n int) {
	if h := pkt.h; h != nil {
		h.check()
		if n > 0 && h.src != dst {
			dst.claim(off, n)
			h.land(dst, off, n)
			pkt.h, pkt.payload = nil, nil
		}
	}
	if n > 0 && pkt.payload != nil {
		b := dst.Claim(off, n) // which may give the packet its copy first
		copy(b, pkt.payload)
	}
	pkt.placed()
}

// placed ends the packet's hold on its payload once the NIC has landed
// it: a window still held lets go of its region, an owned copy goes back
// to the arena.
func (pkt *packet) placed() {
	if pkt.h != nil {
		pkt.h.free()
		pkt.h = nil
	} else {
		pkt.home.Put(pkt.payload)
	}
	pkt.payload = nil
}

// The device's free lists are its node's one byte arena: the payload
// copies its packets come to own (MR.Claim) and the payloads the engine
// above it delivers are drawn from them (Get) and handed back (Put).
// Buffers are recycled by capacity, in classes a quarter of an octave
// wide (two message sizes a node alternates between must not share a free
// list, or the shorter would shadow the longer at the top of it). A miss
// allocates exactly the length asked for — rounding a cold 540-byte
// message up to its class would cost more bytes than recycling saves on
// workloads that never revisit a size. The arena is host memory only: no
// simulated cost attaches to it.
const (
	payloadClasses   = 4*32 + 1 // Get looks one class past the largest
	payloadClassByte = 4 << 20  // bytes a class may keep at rest…
	payloadClassMin  = 8        // …but never fewer buffers than this
	payloadClassMax  = 512      // nor more than this
)

// payloadClass is the class of an n-byte capacity (n ≥ 1): its octave and
// the two bits below the leading one.
func payloadClass(n int) int {
	k := bits.Len(uint(n)) - 1
	if k < 2 {
		return 4 * k
	}
	return 4*k + n>>(k-2)&3
}

// Get returns an n-byte buffer (nil for n ≤ 0): the last one returned to
// n's own class if it is long enough, else any of the next class up. Its
// contents are stale.
func (d *Device) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := payloadClass(n)
	if s := d.freeBufs[c]; len(s) == 0 || cap(s[len(s)-1]) < n {
		c++
	}
	if s := d.freeBufs[c]; len(s) > 0 {
		b := s[len(s)-1][:n]
		s[len(s)-1], d.freeBufs[c] = nil, s[:len(s)-1]
		return b
	}
	return make([]byte, n)
}

// Put hands b back to the arena, which keeps it unless its class is at
// its budget. Nothing may touch b afterwards: a hatdebug build poisons it,
// and panics if the arena holds it already (hatdebug.Put).
func (d *Device) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := payloadClass(cap(b))
	hatdebug.Put(d.freeBufs[c], b)
	if len(d.freeBufs[c]) < min(max(payloadClassByte/cap(b), payloadClassMin), payloadClassMax) {
		d.freeBufs[c] = append(d.freeBufs[c], b)
	}
}

// Holds reports whether b is at rest in the arena.
func (d *Device) Holds(b []byte) bool {
	if cap(b) == 0 {
		return false
	}
	for _, f := range d.freeBufs[payloadClass(cap(b))] {
		if &f[:1][0] == &b[:1][0] {
			return true
		}
	}
	return false
}

// The send engine is the device's send-side NIC pipeline: fetch WQE, DMA
// the payload from host memory, serialize onto the wire, and hand off to
// the fabric. One-sided issue overhead is charged here. It is pure
// timing, so it runs as scheduler callbacks, not as a process: each
// callback schedules the next where a process would sleep, at the same
// (time, seq) place — the first as OpenDevice's spawn would have, the
// rest through txAt. A doorbell wakes the idle engine at once; one rung
// while it works is counted, and costs the yield a Signal's pending fire
// does once the queue is found empty. A crash stops the pending callback.

// txAt schedules the engine's next step.
func (d *Device) txAt(at sim.Time, fn func()) { d.txTimer = d.env.AtTimer(at, fn) }

// ring is PostSend's doorbell for one queued WR.
func (d *Device) ring() {
	if !d.txIdle {
		d.txRings++
		return
	}
	d.txIdle = false
	d.txAt(d.env.Now(), d.txPollFn)
}

// txPoll takes the next WR off the send queue and fetches it.
func (d *Device) txPoll() {
	for d.txq.Len() > 0 {
		pkt := d.txq.Pop()
		qp := pkt.srcQP
		if pkt.gen != qp.gen {
			// Posted before the QP's last recovery: the RESET walk flushed
			// it from the send queue.
			if pkt.signaled {
				qp.flushed(pkt.wrid, pkt.kind)
			}
			pkt.release()
			continue
		}
		d.txPkt = pkt
		d.txAt(d.env.Now()+sim.Time(d.cm.WQEProcessNs), d.txFetchedFn)
		return
	}
	if d.txRings > 0 {
		d.txRings--
		d.txAt(d.env.Now(), d.txPollFn)
		return
	}
	d.txIdle = true
}

// txFetched runs once the WQE is fetched.
func (d *Device) txFetched() {
	pkt := d.txPkt
	if int(pkt.kind) < opRecvBound {
		d.vm.tx[pkt.kind].Inc()
	}
	switch pkt.kind {
	case OpSend, OpSendImm, OpWrite, OpWriteImm:
		if pkt.inline {
			d.vm.inline.Inc()
			d.txRest = 0
			d.txSend()
			return
		}
		d.vm.dma.Inc()
		// The wire takes the message's first packet as soon as it is
		// fetched; the DMA engine fetches the rest while packets leave.
		n := pkt.size
		first := sim.Duration(d.cm.DMATime(min(n, PathMTU)))
		d.txRest = sim.Duration(d.cm.DMATime(n)) - first
		d.txAt(d.env.Now()+sim.Time(first), d.txSendFn)
	case OpRead:
		d.txAt(d.env.Now()+sim.Time(d.cm.OutboundOneSidedExtraNs), d.txReadFn)
	default:
		panic("verbs: bad opcode on send queue")
	}
}

// txSend transmits a fetched two-sided or WRITE message once its first
// packet is in the NIC.
func (d *Device) txSend() {
	pkt, rest := d.txPkt, d.txRest
	d.txPkt = nil
	qp, n := pkt.srcQP, pkt.size
	// transmit releases a packet the fabric loses, so read what the send
	// completion needs first.
	id, op, signaled, postTs := pkt.wrid, pkt.kind, pkt.signaled, pkt.postTs
	pkt.dstQP = qp.peer
	txDone, delivered := d.transmit(pkt, n, rest)
	if signaled && delivered {
		// Local send completion once the message is on the wire.
		cqeAt := txDone + sim.Time(d.cm.CQEDmaNs)
		if trc := d.trc; trc != nil {
			trc.Complete("verbs", "wr."+op.String(), d.node.ID(), int(qp.id),
				postTs, int64(cqeAt), obs.Arg{K: "wrid", V: id}, obs.Arg{K: "bytes", V: n})
		}
		// pkt belongs to the fabric now; a spare packet carries the
		// completion, so raising it allocates nothing either.
		c := d.getPacket()
		c.cq, c.wc = qp.sendCQ, WC{WRID: id, Op: op, ByteLen: n, QP: qp}
		d.env.At(cqeAt, c.cqeFn)
	}
	if rest > 0 {
		d.txAt(d.env.Now()+sim.Time(rest), d.txPollFn)
		return
	}
	d.txPoll()
}

// txRead issues a READ request once its one-sided overhead is paid.
func (d *Device) txRead() {
	pkt := d.txPkt
	d.txPkt = nil
	pkt.dstQP = pkt.srcQP.peer
	d.transmit(pkt, 0, 0) // request packet is header-only
	d.txPoll()
}

// transmit puts a message of size payload bytes on the wire and hands it
// to the fabric. It runs once the message's first packet is fetched; rest
// is how much longer the fetch of the others takes. The message leaves as
// packets (PathMTU): the TX gate takes them in one reservation that starts
// with the first and cannot end before the last has been fetched and
// sent, and once the last has arrived, the responder's RX gate is
// reserved from the first packet's arrival the same way (arrive).
// transmit returns the virtual time the last byte leaves the local NIC,
// and whether the fabric delivered the message. A packet that is not
// delivered is released here.
//
// When a fault plan is installed on the cluster it is consulted per
// message: a dropped message never reaches the remote NIC — instead,
// after the RC transport's retry window expires, the requester QP enters
// the error state and a WCRetryExceeded completion is raised, signaled
// request or not. The loss also opens a PSN gap: every later
// request of that QP is discarded at the responder, exactly like the
// first, until the QP is recovered — so a WRITE behind a lost WRITE can
// never complete a message the responder holds only part of. Jitter and
// destination-pause delays stretch the propagation leg without letting a
// QP's packets overtake one another. With no plan installed this path is
// untouched.
func (d *Device) transmit(pkt *packet, size int, rest sim.Duration) (txDone sim.Time, delivered bool) {
	if d.dead {
		// The NIC died between scheduling this transfer (e.g. a READ
		// response being served) and issuing it: nothing reaches the
		// wire, and the live initiator's retry timer expires.
		d.dropInFlight(pkt, d.env.Now())
		pkt.release()
		return d.env.Now(), false
	}
	hdr := d.cm.WireHeaderBytes
	pkt.wire = size + packets(size)*hdr
	pkt.lastWire = lastPacket(size) + hdr
	now, tx := d.env.Now(), d.node.TX
	start, txDone := tx.Stream(now, pkt.wire, now+sim.Time(rest+tx.SerializationTime(pkt.lastWire)))
	remote := pkt.dstQP.dev
	prop := sim.Time(d.node.Cluster().PropDelay())
	first := start + sim.Time(tx.SerializationTime(min(size, PathMTU)+hdr)) + prop
	last := txDone + prop
	if remote.dead {
		if remote.node.Down() {
			// Target is dark: the message vanishes and transport retries
			// run out, exactly like a fabric loss.
			d.dropInFlight(pkt, txDone)
		} else {
			// Target rebooted: its new NIC does not know this QP and NAKs
			// the very first packet — a fast connection-invalid failure.
			// (delivered=false suppresses the local success completion, so
			// the error CQE is never a duplicate here.)
			d.failRemoteInvalid(pkt, last+prop, false)
		}
		pkt.release()
		return txDone, false
	}
	if !pkt.isReadResp && pkt.srcQP.gap {
		// Behind a PSN gap: sent, and discarded by the responder.
		d.dropInFlight(pkt, txDone)
		pkt.release()
		return txDone, false
	}
	if fp := d.node.Cluster().Faults(); fp != nil {
		drop, extra := fp.Outcome(d.node.ID(), remote.node.ID(), packets(size))
		if drop {
			d.dropInFlight(pkt, txDone)
			pkt.release()
			return txDone, false
		}
		// RC delivers in order: a delayed message holds back the ones
		// behind it, whose first packet cannot arrive before its last.
		src := pkt.srcQP
		shift := max(sim.Time(extra), src.lastArrive-first)
		first, last = first+shift, last+shift
		src.lastArrive = last
	}
	pkt.firstArrive = first
	d.env.At(last, pkt.arriveFn)
	return txDone, true
}

// dropInFlight models the requester-side consequence of a message lost
// by the fabric: the owning QP has a PSN gap from this moment, after
// RetryTimeoutNs of futile transport retries it transitions to the error
// state, and the work request completes with WCRetryExceeded — unsignaled
// ones too: as with RNR exhaustion and remote-invalid NAKs, an error is
// never silent, which is what lets the engine re-send a lost request when
// the NIC gives up on it rather than when its own timer does. For
// a lost READ response the "owner" is the initiator (its retry timer is
// the one that expires); for everything else it is the sender. A QP that
// was recovered before the timer ran out is not errored again: the timer
// belonged to the connection state the recovery reset.
func (d *Device) dropInFlight(pkt *packet, txDone sim.Time) {
	owner := pkt.owner()
	owner.gap = true
	id, op, gen := pkt.wrid, pkt.kind, owner.gen
	d.env.At(txDone+sim.Time(d.cm.RetryTimeoutNs), func() {
		if owner.gen == gen {
			owner.errored = true
		}
		owner.sendCQ.push(WC{WRID: id, Op: op, Status: WCRetryExceeded, QP: owner})
	})
}

// failRemoteInvalid models the responder NAKing a request outright — a
// stale-epoch rkey, or a QP unknown to a rebooted NIC. At time at the
// requester QP errors and a WCRemoteInvalid completion is raised; like
// RNR exhaustion, the error completion is raised even for unsignaled
// work requests (errors are never silent). For a failed READ response
// the error lands at the initiator. alreadyCompleted suppresses the
// error CQE for WRs whose local wire-time success completion was
// already raised (a signaled two-sided or WRITE WR — the model
// completes those at tx, so only the QP error can still signal the
// failure); READs and everything the engine posts (unsignaled WRITEs)
// never early-complete and always get the typed completion.
func (d *Device) failRemoteInvalid(pkt *packet, at sim.Time, alreadyCompleted bool) {
	owner := pkt.owner()
	id, op := pkt.wrid, pkt.kind
	d.env.At(at, func() {
		owner.errored = true
		if !alreadyCompleted {
			owner.sendCQ.push(WC{WRID: id, Op: op, Status: WCRemoteInvalid, QP: owner})
		}
	})
}

// receive is the remote NIC's handling of an arrived packet. It runs as a
// scheduler callback (the NIC RX pipeline does not occupy host CPU).
func (d *Device) receive(pkt *packet) {
	cm := d.cm
	env := d.env
	// A crash at either end while the packet crossed the fabric loses it
	// (a node's in-flight messages die with its boot epoch). READs have
	// not completed at the initiator yet, so its retry timer expiring
	// raises the error completion; two-sided sends already completed
	// locally when they hit the wire, so only the QP transitions.
	if d.dead || pkt.srcQP.dev.dead {
		if pkt.kind == OpRead || pkt.isReadResp {
			d.dropInFlight(pkt, env.Now())
		} else {
			src := pkt.srcQP
			env.After(sim.Duration(cm.RetryTimeoutNs), func() { src.errored = true })
		}
		pkt.release()
		return
	}
	if pkt.isReadResp {
		// READ response at the initiator: DMA into the destination SGE
		// and complete. Every packet but the last was placed while the
		// next one crossed the RX gate.
		n := pkt.size
		dst := pkt.readDst
		pkt.place(dst.MR, dst.Off, min(n, dst.MR.Len()-dst.Off))
		if !pkt.signaled {
			pkt.release()
			return
		}
		qp := pkt.dstQP
		dly := sim.Duration(cm.DMATime(lastPacket(n)) + cm.CQEDmaNs)
		if trc := d.trc; trc != nil {
			trc.Complete("verbs", "wr.READ", d.node.ID(), int(qp.id),
				pkt.postTs, int64(env.Now())+int64(dly),
				obs.Arg{K: "wrid", V: pkt.wrid}, obs.Arg{K: "bytes", V: n})
		}
		pkt.cq = qp.sendCQ
		pkt.wc = WC{WRID: pkt.wrid, Op: OpRead, ByteLen: n, QP: qp}
		env.After(dly, pkt.cqeFn)
		return
	}
	switch pkt.kind {
	case OpSend, OpSendImm:
		qp := pkt.dstQP
		wr, ok := qp.takeRecv()
		if !ok {
			qp.noRecv(pkt)
			return
		}
		qp.completeRecv(pkt, wr)
	case OpWrite, OpWriteImm:
		if !d.rkeyValid(pkt.remote) {
			// Credential from another boot epoch: NAK, never touch memory.
			d.failRemoteInvalid(pkt, env.Now()+sim.Time(d.node.Cluster().PropDelay()), pkt.signaled)
			pkt.release()
			return
		}
		dst := pkt.remote.mr
		if dst.revoked {
			pkt.release() // stale rkey: access withdrawn, WRITE discarded
			return
		}
		pkt.place(dst, pkt.remoteOff, min(pkt.size, dst.Len()-pkt.remoteOff))
		if pkt.kind == OpWrite {
			// Inbound WRITE: NIC DMA only, no CPU, no target completion.
			off, n := pkt.remoteOff, pkt.size
			pkt.release()
			if dst.onWrite != nil {
				dst.onWrite(off, n)
			}
			return
		}
		qp := pkt.dstQP
		wr, ok := qp.takeRecv()
		if !ok {
			qp.noRecv(pkt)
			return
		}
		// WRITE_WITH_IMM consumes a RECV WQE but the data went to the
		// WRITE target, not the receive buffer.
		qp.deliver(pkt, wr)
	case OpRead:
		if !d.rkeyValid(pkt.remote) {
			// A READ completes only on its response, so the typed error
			// CQE is never a duplicate.
			d.failRemoteInvalid(pkt, env.Now()+sim.Time(d.node.Cluster().PropDelay()), false)
			pkt.release()
			return
		}
		// Serve the READ entirely in the NIC: fetch from host memory and
		// stream the response back, starting once its first packet is
		// fetched.
		src := pkt.remote.mr
		if src.revoked {
			// Stale rkey: remote access error. The initiator's WR fails
			// after its retry window, like a lost response would.
			d.dropInFlight(pkt, env.Now())
			pkt.release()
			return
		}
		n := pkt.readDst.Len
		resp := d.getPacket()
		resp.kind, resp.isReadResp = OpRead, true
		resp.srcQP, resp.dstQP = pkt.dstQP, pkt.srcQP
		resp.wrid, resp.signaled = pkt.wrid, pkt.signaled
		resp.readDst, resp.postTs, resp.site = pkt.readDst, pkt.postTs, pkt.site
		if n > 0 {
			resp.borrow(src, pkt.remoteOff, n)
		}
		pkt.release()
		first := sim.Duration(cm.DMATime(min(n, PathMTU)))
		rest := sim.Duration(cm.DMATime(n)) - first
		// The response takes the same fabric path as any other message
		// (and is therefore subject to the same fault plan).
		env.After(sim.Duration(cm.InboundServeNs)+first, func() { d.transmit(resp, n, rest) })
	}
}

// completeRecv lands a two-sided payload in the RECV buffer and raises
// the receive completion once the last packet is placed.
func (qp *QP) completeRecv(pkt *packet, wr RecvWR) {
	cm := qp.dev.cm
	n := min(pkt.size, wr.SGE.Len)
	pkt.place(wr.SGE.MR, wr.SGE.Off, n)
	pkt.cq = qp.recvCQ
	pkt.wc = WC{WRID: wr.WRID, Op: OpRecv, ByteLen: n, QP: qp}
	if pkt.kind == OpSendImm {
		pkt.wc.Imm, pkt.wc.HasImm = pkt.imm, true
	}
	qp.dev.env.After(sim.Duration(cm.DMATime(lastPacket(n))+cm.CQEDmaNs), pkt.cqeFn)
}
