package verbs

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// landedAt parks p until cq holds a completion and returns when it was
// raised: PollBusy without its detection delay.
func landedAt(p *sim.Proc, cq *CQ) sim.Time {
	for cq.Depth() == 0 {
		cq.sig.Wait(p)
	}
	return p.Now()
}

// TestPacketPipelineTiming times single messages on an idle two-node
// fabric against the packet pipeline's closed form. From the doorbell, a
// message of n bytes in P packets is done after
//
//	WQE + the first packet's fetch + the wire time of n bytes and P headers
//	+ propagation + the last packet's RX + one packet's placement + CQE
//
// (a READ adds its header-only request's trip and the responder's serve
// in front). For one packet this is the store-and-forward form — fetch
// it all, send it all, receive it all, place it all: pipelining changes
// nothing for a message that fits one packet.
func TestPacketPipelineTiming(t *testing.T) {
	cm := DefaultCostModel()
	const hdr = 40 // WireHeaderBytes, spelled out so the closed form is readable
	if cm.WireHeaderBytes != hdr {
		t.Fatalf("WireHeaderBytes = %d, the closed form below assumes %d", cm.WireHeaderBytes, hdr)
	}
	for _, op := range []Opcode{OpWriteImm, OpSend, OpRead} {
		for _, n := range []int{1, 1000, PathMTU, 2 * PathMTU, 4 * PathMTU, 32 * PathMTU} {
			t.Run(fmt.Sprintf("%v/%d", op, n), func(t *testing.T) {
				env := sim.NewEnv(1)
				a, b := testPair(env)
				ser := func(bytes int) sim.Time { return sim.Time(a.dev.node.TX.SerializationTime(bytes)) }
				dma := func(bytes int) sim.Time { return sim.Time(cm.DMATime(bytes)) }
				prop := sim.Time(a.dev.node.Cluster().PropDelay())
				src, dst := a.pd.RegisterMRNoCost(n), b.pd.RegisterMRNoCost(n)
				data, peer := src, dst // data moves from data to peer
				if op == OpRead {
					data, peer = dst, src
				}
				for i := range data.Buf {
					data.Buf[i] = byte(i*7 + 3)
				}
				b.qp.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: dst, Len: n}})
				var posted, done sim.Time
				env.Spawn("client", func(p *sim.Proc) {
					wr := &SendWR{Op: op, SGE: SGE{MR: src, Len: n}, Remote: dst.RKey(), Unsignaled: op != OpRead}
					a.qp.PostSend(p, wr)
					posted = p.Now()
					cq := b.cq
					if op == OpRead {
						cq = a.cq
					}
					done = landedAt(p, cq)
					env.Stop()
				})
				env.Run()
				if !bytes.Equal(peer.Buf, data.Buf) {
					t.Fatal("payload did not arrive intact")
				}

				P := (n + PathMTU - 1) / PathMTU
				last := n - (P-1)*PathMTU
				wire := ser(n + P*hdr)
				// What a message costs from its first fetch to its last
				// packet placed, and before: a READ's request trip.
				var front, place sim.Time
				switch op {
				case OpWriteImm:
					place = sim.Time(cm.InboundServeNs) // no per-byte placement: the data went to the WRITE target
				case OpSend:
					place = dma(last)
				case OpRead:
					front = sim.Time(cm.OutboundOneSidedExtraNs) + ser(hdr) + prop + ser(hdr) + sim.Time(cm.InboundServeNs)
					place = dma(last)
				}
				wqe, cqe := sim.Time(cm.WQEProcessNs), sim.Time(cm.CQEDmaNs)
				want := wqe + front + dma(min(n, PathMTU)) + wire + prop + ser(last+hdr) + place + cqe
				if got := done - posted; got != want {
					t.Errorf("%v of %d bytes (%d packets) took %d ns, want %d", op, n, P, got, want)
				}
			})
		}
	}

	// Incast: a one-packet SEND that reaches a receiver while another
	// node's 128 KB WRITE_WITH_IMM streams into it is not held behind the
	// whole WRITE — the RX gate interleaves them as their packets come —
	// and delays the WRITE by its own wire time only.
	t.Run("incast", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := simnet.NewCluster(env, simnet.Config{
			Nodes: 3, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
		})
		dev := []*Device{OpenDevice(cl.Node(0), cm), OpenDevice(cl.Node(1), cm), OpenDevice(cl.Node(2), cm)}
		pair := func(from, to *Device) (*QP, *QP, *CQ) {
			fcq, tcq := from.CreateCQ(), to.CreateCQ()
			a, b := from.CreateQP(fcq, fcq), to.CreateQP(tcq, tcq)
			a.Connect(b)
			b.Connect(a)
			return a, b, tcq
		}
		bulkQP, bulkPeer, bulkCQ := pair(dev[0], dev[2])
		smallQP, smallPeer, smallCQ := pair(dev[1], dev[2])
		ser := func(bytes int) sim.Time { return sim.Time(cl.Node(0).TX.SerializationTime(bytes)) }
		dma := func(bytes int) sim.Time { return sim.Time(cm.DMATime(bytes)) }
		prop, wqe, cqe := sim.Time(cl.PropDelay()), sim.Time(cm.WQEProcessNs), sim.Time(cm.CQEDmaNs)
		const n, small = 32 * PathMTU, 64
		src := dev[0].AllocPD().RegisterMRNoCost(n)
		dst := dev[2].AllocPD().RegisterMRNoCost(n)
		msg := dev[1].AllocPD().RegisterMRNoCost(small)
		box := dev[2].AllocPD().RegisterMRNoCost(small)
		bulkPeer.PostRecv(RecvWR{WRID: 1, SGE: SGE{MR: dst, Len: 0}})
		smallPeer.PostRecv(RecvWR{WRID: 2, SGE: SGE{MR: box, Len: small}})
		var bulkPosted, bulkDone, smallPosted, smallDone sim.Time
		env.Spawn("bulk", func(p *sim.Proc) {
			bulkQP.PostSend(p, &SendWR{Op: OpWriteImm, SGE: SGE{MR: src, Len: n}, Remote: dst.RKey(), Unsignaled: true})
			bulkPosted = p.Now()
			bulkDone = landedAt(p, bulkCQ)
		})
		env.Spawn("small", func(p *sim.Proc) {
			p.Sleep(5_000) // the WRITE's packets are arriving by now
			smallQP.PostSend(p, &SendWR{Op: OpSend, SGE: SGE{MR: msg, Len: small}, Unsignaled: true})
			smallPosted = p.Now()
			smallDone = landedAt(p, smallCQ)
		})
		env.Run()
		alone := wqe + dma(small) + ser(small+hdr) + prop + ser(small+hdr) + dma(small) + cqe
		if got := smallDone - smallPosted; got != alone {
			t.Errorf("the SEND took %d ns amid the WRITE, %d alone", got, alone)
		}
		bulkAlone := wqe + dma(PathMTU) + ser(n+n/PathMTU*hdr) + prop + ser(PathMTU+hdr) + sim.Time(cm.InboundServeNs) + cqe
		if got := bulkDone - bulkPosted; got != bulkAlone+ser(small+hdr) {
			t.Errorf("the WRITE took %d ns beside the SEND, %d alone + %d for the SEND's wire time", got, bulkAlone, ser(small+hdr))
		}
	})

	// Sixteen back-to-back 128 KB WRITEs behind one doorbell leave at the
	// link rate: PCIe at PCIeBytesPerNs fetches each message's packets
	// faster than the wire sends them, so the wire never waits for a fetch
	// and the last byte leaves sixteen messages' wire time after the first
	// packet was fetched.
	t.Run("link-rate", func(t *testing.T) {
		const msgs, n = 16, 128 << 10
		env := sim.NewEnv(1)
		a, b := testPair(env)
		ser := func(bytes int) sim.Time { return sim.Time(a.dev.node.TX.SerializationTime(bytes)) }
		if fetch := sim.Time(cm.DMATime(PathMTU)); fetch >= ser(PathMTU) {
			t.Fatalf("a packet's fetch (%d ns) does not outrun its wire time (%d ns)", fetch, ser(PathMTU))
		}
		src, dst := a.pd.RegisterMRNoCost(msgs*n), b.pd.RegisterMRNoCost(msgs*n)
		for i := range src.Buf {
			src.Buf[i] = byte(i*5 + 1)
		}
		wrs := make([]SendWR, msgs)
		for i := range wrs {
			wrs[i] = SendWR{Op: OpWrite, SGE: SGE{MR: src, Off: i * n, Len: n}, Remote: dst.RKey(), RemoteOff: i * n, Unsignaled: i < msgs-1}
			if i > 0 {
				wrs[i-1].Next = &wrs[i]
			}
		}
		var posted, done sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			a.qp.PostSend(p, &wrs[0])
			posted = p.Now()
			done = landedAt(p, a.cq)
			p.Sleep(10_000) // the last WRITE lands
			env.Stop()
		})
		env.Run()
		if !bytes.Equal(dst.Buf, src.Buf) {
			t.Fatal("payload did not arrive intact")
		}
		// The signaled last WRITE completes once its last byte is on the wire.
		wire := ser(n + n/PathMTU*cm.WireHeaderBytes)
		want := sim.Time(cm.WQEProcessNs) + sim.Time(cm.DMATime(PathMTU)) + msgs*wire + sim.Time(cm.CQEDmaNs)
		if got := done - posted; got != want {
			t.Errorf("%d WRITEs of %d bytes left in %d ns, want %d (the link busy from the first fetched packet on)", msgs, n, got, want)
		}
	})
}
