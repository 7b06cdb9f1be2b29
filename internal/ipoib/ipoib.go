// Package ipoib models IP-over-InfiniBand socket communication — the
// transport under the paper's vanilla "Thrift over IPoIB" baseline. IPoIB
// runs the kernel TCP/IP stack over the IB link: every message pays
// syscall entry, a user↔kernel copy on each side, interrupt-driven
// receive wakeup, and an effective bandwidth well below line rate
// (protocol overhead plus per-packet kernel work).
package ipoib

import (
	"fmt"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// CostModel holds the IPoIB kernel-path constants.
type CostModel struct {
	// SyscallNs is send/recv syscall entry+exit CPU cost.
	SyscallNs int64
	// CopyBytesPerNs is user↔kernel copy bandwidth.
	CopyBytesPerNs float64
	// InterruptNs is the receive-side softirq+wakeup cost.
	InterruptNs int64
	// EffectiveGbps is achievable IPoIB goodput (the paper's testbed saw
	// far below the 100 Gbps line rate; ~40 Gbps is typical for IPoIB on
	// EDR with connected mode).
	EffectiveGbps float64
	// PerPacketNs is kernel per-MTU-packet processing; charged per 64 KB
	// segment as a coarse aggregate.
	PerPacketNs int64
}

// DefaultCostModel returns IPoIB constants for the paper's EDR fabric.
func DefaultCostModel() *CostModel {
	return &CostModel{
		SyscallNs:      700,
		CopyBytesPerNs: 8.0,
		InterruptNs:    5000,
		EffectiveGbps:  40,
		PerPacketNs:    1500,
	}
}

// message is one framed payload in flight.
type message struct {
	data []byte
}

// Conn is one side of an established IPoIB (TCP) connection carrying
// framed messages.
type Conn struct {
	node  *simnet.Node
	peer  *Conn
	in    *sim.Queue[message]
	cm    *CostModel
	numaB bool

	// Optional observability (nil = off; instruments are nil-safe).
	msgsSent   *obs.Counter
	bytesSent  *obs.Counter
	msgsRecvd  *obs.Counter
	bytesRecvd *obs.Counter
	retrans    *obs.Counter
	trc        *obs.Tracer
}

// TCP retransmission pacing under fault injection: a segment lost by the
// fabric is resent by the kernel after the RTO, which doubles per loss up
// to the cap. The application only ever observes added latency — TCP's
// reliability is part of the baseline being compared against.
const (
	tcpRTONs    = 200_000   // initial retransmission timeout
	tcpRTOCapNs = 1_600_000 // RTO backoff ceiling
)

// SetNUMABound marks this endpoint's copies as NUMA-local.
func (c *Conn) SetNUMABound(b bool) { c.numaB = b }

// SetObs attaches observability counters (ipoib.msgs_sent and friends)
// and, when the registry carries a tracer, kernel-path send/recv spans.
// Pass nil to detach: the nil registry hands out nil instruments.
func (c *Conn) SetObs(r *obs.Registry) {
	c.msgsSent = r.Counter("ipoib.msgs_sent")
	c.bytesSent = r.Counter("ipoib.bytes_sent")
	c.msgsRecvd = r.Counter("ipoib.msgs_recvd")
	c.bytesRecvd = r.Counter("ipoib.bytes_recvd")
	c.retrans = r.Counter("ipoib.retransmits")
	c.trc = r.Tracer()
}

// Node returns the local node.
func (c *Conn) Node() *simnet.Node { return c.node }

// bwBytesPerNs converts the effective rate.
func (cm *CostModel) bwBytesPerNs() float64 { return cm.EffectiveGbps / 8.0 }

// Send ships one framed message, charging the sender-side kernel path and
// wire serialization. Delivery is asynchronous.
func (c *Conn) Send(p *sim.Proc, data []byte) {
	start := int64(p.Now())
	c.msgsSent.Inc()
	c.bytesSent.Add(int64(len(data)))
	cpu := c.node.CPU
	cm := c.cm
	// Syscall + user→kernel copy.
	work := sim.Duration(cm.SyscallNs + int64(float64(len(data))/cm.CopyBytesPerNs))
	segs := int64(len(data)/65536 + 1)
	work += sim.Duration(segs * cm.PerPacketNs)
	cpu.Compute(p, c.node.NUMAWork(work, c.numaB))

	// Wire: IPoIB shares the IB link but at degraded effective bandwidth;
	// model by inflating the occupancy of the TX/RX gates.
	lineBpn := c.node.Cluster().Config().LinkGbps / 8.0
	inflated := int(float64(len(data)+80) * lineBpn / cm.bwBytesPerNs())
	c.node.TX.Transmit(p, inflated)
	env := p.Env()
	peer := c.peer
	msg := message{data: append([]byte(nil), data...)}
	prop := c.node.Cluster().PropDelay()
	if fp := c.node.Cluster().Faults(); fp != nil {
		// Fault injection: the same per-hop drop/jitter model the RDMA
		// path sees, but surfaced with TCP semantics — a lost segment is
		// retransmitted by the kernel after the RTO (doubling per loss),
		// so the application observes delay, never loss.
		from, to := c.node.ID(), peer.node.ID()
		var attempt func(rto sim.Duration)
		attempt = func(rto sim.Duration) {
			drop, extra := fp.Outcome(from, to, 1)
			if drop {
				c.retrans.Inc()
				next := rto * 2
				if next > tcpRTOCapNs {
					next = tcpRTOCapNs
				}
				env.After(rto, func() { attempt(next) })
				return
			}
			// The retransmitted segment re-occupies the wire.
			txDone := c.node.TX.Reserve(env.Now(), inflated)
			env.At(txDone+sim.Time(prop+extra), func() {
				rxDone := peer.node.RX.Reserve(env.Now(), inflated)
				env.At(rxDone, func() { peer.in.Push(msg) })
			})
		}
		drop, extra := fp.Outcome(from, to, 1)
		if drop {
			c.retrans.Inc()
			env.After(tcpRTONs, func() { attempt(2 * tcpRTONs) })
		} else {
			env.After(prop+extra, func() {
				rxDone := peer.node.RX.Reserve(env.Now(), inflated)
				env.At(rxDone, func() { peer.in.Push(msg) })
			})
		}
	} else {
		env.After(prop, func() {
			rxDone := peer.node.RX.Reserve(env.Now(), inflated)
			env.At(rxDone, func() { peer.in.Push(msg) })
		})
	}
	if trc := c.trc; trc != nil {
		trc.Complete("ipoib", "send", c.node.ID(), 0, start, int64(p.Now()),
			obs.Arg{K: "bytes", V: len(data)})
	}
}

// Recv blocks until a framed message arrives, charging the receive-side
// interrupt wakeup and kernel→user copy.
func (c *Conn) Recv(p *sim.Proc) []byte {
	m := c.in.Pop(p)
	start := int64(p.Now())
	cpu := c.node.CPU
	cm := c.cm
	wake := sim.Duration(float64(cm.InterruptNs) * cpu.LoadFactor())
	p.Sleep(wake)
	work := sim.Duration(cm.SyscallNs + int64(float64(len(m.data))/cm.CopyBytesPerNs))
	cpu.Compute(p, c.node.NUMAWork(work, c.numaB))
	c.msgsRecvd.Inc()
	c.bytesRecvd.Add(int64(len(m.data)))
	if trc := c.trc; trc != nil {
		trc.Complete("ipoib", "recv", c.node.ID(), 0, start, int64(p.Now()),
			obs.Arg{K: "bytes", V: len(m.data)})
	}
	return m.data
}

// Call sends a request and blocks for the single response (the framed
// Thrift RPC pattern).
func (c *Conn) Call(p *sim.Proc, data []byte) []byte {
	c.Send(p, data)
	return c.Recv(p)
}

// Listener accepts IPoIB connections.
type Listener struct {
	node *simnet.Node
	l    *simnet.Listener
	cm   *CostModel
}

// Listen opens a TCP-style listener on the node.
func Listen(node *simnet.Node, port string, cm *CostModel) *Listener {
	if cm == nil {
		cm = DefaultCostModel()
	}
	return &Listener{node: node, l: node.Listen("ipoib:" + port), cm: cm}
}

// Accept blocks for a connection; the returned Conn is the server side.
func (ln *Listener) Accept(p *sim.Proc) *Conn {
	ep := ln.l.Accept(p)
	c := &Conn{node: ln.node, cm: ln.cm, in: sim.NewQueue[message](p.Env())}
	// Exchange conn pointers over the handshake channel.
	peer := ep.Recv(p).(*Conn)
	c.peer = peer
	peer.peer = c
	ep.Send(p, c, 16)
	return c
}

// Dial connects to an IPoIB listener on the target node.
func Dial(p *sim.Proc, from, to *simnet.Node, port string, cm *CostModel) *Conn {
	if cm == nil {
		cm = DefaultCostModel()
	}
	ep := from.Connect(p, to, "ipoib:"+port)
	c := &Conn{node: from, cm: cm, in: sim.NewQueue[message](p.Env())}
	ep.Send(p, c, 16)
	srv := ep.Recv(p).(*Conn)
	if srv.peer != c {
		panic(fmt.Sprintf("ipoib: handshake mismatch on %s", port))
	}
	return c
}
