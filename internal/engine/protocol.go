// Package engine implements HatRPC's hint-aware RDMA communication
// engine (§4.3): the nine RDMA protocols analysed in §3 (Figure 3), the
// hint→protocol selection algorithm distilled from the design-space study
// (Figure 6), per-connection buffer management (eager circular rings,
// pre-known direct buffers, a rendezvous buffer pool), and the fixed-
// policy comparator engines (AR-gRPC, HERD, Pilaf, RFP) used by the
// paper's YCSB evaluation.
package engine

import (
	"fmt"

	"hatrpc/internal/hints"
)

// Protocol identifies one of the RDMA communication protocols of Fig. 3.
type Protocol uint8

// The protocols of Figure 3, plus the two adaptive hybrids the paper
// measures against. What each one sends is its row (rows).
const (
	// ProtoAuto defers the choice: as a CallOpts.RespProto it means "same
	// as the request protocol"; in a plan it means "let hints decide".
	ProtoAuto        Protocol = iota
	EagerSendRecv             // Fig. 3a: copy into a pre-posted ring slot, SEND
	DirectWriteSend           // Fig. 3b: WRITE a pre-known buffer, notify SEND; two doorbells
	ChainedWriteSend          // Fig. 3c: the same pair as one chain; one doorbell
	WriteRNDV                 // Fig. 3d: RTS → CTS(buffer) → WRITE_WITH_IMM
	ReadRNDV                  // Fig. 3e: RTS(rkey) → the target READs the payload
	DirectWriteIMM            // Fig. 3f: one WRITE_WITH_IMM instead of the pair
	Pilaf                     // Fig. 3g: Pilaf's GETs, two header probes and a payload READ
	FaRM                      // Fig. 3h: FaRM's GETs, one header probe and a payload READ
	RFP                       // Fig. 3i: WRITE the request; the client READs the response
	HERD                      // HERD: WRITE the request into a polled slot, SEND the response
	HybridEagerRNDV           // the vanilla adaptive baseline: eager to 4 KB, Write-RNDV above
	HybridEagerRead           // AR-gRPC's adaptive pair: eager to 4 KB, Read-RNDV above
)

// nProtocols sizes the row table and the per-protocol instrument arrays
// (ProtoAuto included so Protocol values index directly).
const nProtocols = int(HybridEagerRead) + 1

// A leg is how one direction of a call carries its message: every
// protocol of Fig. 3 is a request leg and a response leg.
type leg uint8

const (
	legNone        leg = iota // no leg of its own: ProtoAuto, a hybrid
	legEager                  // SEND through the eager ring (Fig. 3a)
	legDirectWrite            // WRITE into the direct buffer, then a notify SEND (Fig. 3b)
	legChained                // the same WRITE and SEND as one chain (Fig. 3c)
	legWriteImm               // one WRITE_WITH_IMM into the direct buffer (Fig. 3f)
	legWriteRNDV              // RTS, CTS, WRITE_WITH_IMM into the granted buffer (Fig. 3d)
	legReadRNDV               // RTS, the peer READs the exposed buffer, FIN (Fig. 3e)
	legSlot                   // WRITE into the server's polled request slot
	legFetch                  // published for the client to READ (fetchUntil)
)

// row is what a protocol means to the engine: how its request and its
// response travel, how a client probes for a fetched response, and, for a
// hybrid, which has no legs of its own, the protocol it takes above
// DefaultRndvThreshold (Eager-SendRecv at or below it; hybridSwitch).
type row struct {
	name      string
	req, resp leg
	probe     fetchProbe // a fetched response's probe; zero otherwise
	large     Protocol   // a hybrid's large-message protocol; ProtoAuto otherwise
}

// rows describes every protocol. RFP probes its first response chunk,
// Pilaf makes two metadata probes and FaRM one.
var rows = [nProtocols]row{
	ProtoAuto:        {name: "auto"},
	EagerSendRecv:    {name: "Eager-SendRecv", req: legEager, resp: legEager},
	DirectWriteSend:  {name: "Direct-Write-Send", req: legDirectWrite, resp: legDirectWrite},
	ChainedWriteSend: {name: "Chained-Write-Send", req: legChained, resp: legChained},
	WriteRNDV:        {name: "Write-RNDV", req: legWriteRNDV, resp: legWriteRNDV},
	ReadRNDV:         {name: "Read-RNDV", req: legReadRNDV, resp: legReadRNDV},
	DirectWriteIMM:   {name: "Direct-WriteIMM", req: legWriteImm, resp: legWriteImm},
	Pilaf:            {name: "Pilaf", req: legEager, resp: legFetch, probe: fetchProbe{hdrProbe, 2}},
	FaRM:             {name: "FaRM", req: legEager, resp: legFetch, probe: fetchProbe{hdrProbe, 1}},
	RFP:              {name: "RFP", req: legSlot, resp: legFetch, probe: fetchProbe{rfpChunk, 1}},
	HERD:             {name: "HERD", req: legSlot, resp: legEager},
	HybridEagerRNDV:  {name: "Hybrid-EagerRNDV", large: WriteRNDV},
	HybridEagerRead:  {name: "Hybrid-EagerRead(AR-gRPC)", large: ReadRNDV},
}

// row returns pr's row; a value outside the table has the zero row, whose
// legs are legNone.
func (pr Protocol) row() row {
	if int(pr) < nProtocols {
		return rows[pr]
	}
	return row{}
}

func (pr Protocol) String() string {
	if name := pr.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("Protocol(%d)", uint8(pr))
}

// NeedsFetchBufs reports whether calls on pr use the server's published
// regions (Config.NoFetchBufs): its request is a slot WRITE or its
// response is fetched.
func (pr Protocol) NeedsFetchBufs() bool {
	r := pr.row()
	return r.req == legSlot || r.resp == legFetch
}

// AllProtocols lists every protocol the engine implements, in Fig. 3
// order.
var AllProtocols = []Protocol{
	EagerSendRecv, DirectWriteSend, ChainedWriteSend, WriteRNDV, ReadRNDV,
	DirectWriteIMM, Pilaf, FaRM, RFP, HERD, HybridEagerRNDV, HybridEagerRead,
}

// Plan is the engine-level execution plan derived from a resolved hint
// set: which protocol to use for a payload regime and how to poll.
type Plan struct {
	Proto Protocol
	Busy  bool // busy polling (vs event-driven)
}

// DefaultRndvThreshold is the Hybrid-EagerRNDV switchover (§4.3): 4 KB.
const DefaultRndvThreshold = 4096

// RFPMinSize is the payload size above which the planner prefers RFP for
// over-subscribed throughput workloads.
const RFPMinSize = 65536

// SelectPlan maps a resolved hint set to a protocol and polling mode for
// a payload of the given size, per the Figure 6 design space:
//
//	goal        subscription  small(≤4K)        large(>4K)       polling
//	latency     any           Direct-WriteIMM   Direct-WriteIMM  busy
//	throughput  under         Direct-WriteIMM   Direct-WriteIMM  busy
//	throughput  full          Direct-WriteIMM   Direct-WriteIMM  event
//	throughput  over          Direct-WriteIMM   RFP              event
//	res_util    under         Direct-WriteIMM   Write-RNDV       event
//	res_util    full/over     Eager-SendRecv    Write/Read-RNDV  event
//
// An explicit polling hint overrides the derived mode. size==0 falls back
// to the payload_size hint; when both are unknown the engine cannot
// pre-commit size-specialized buffers, so it falls back to the adaptive
// Hybrid-EagerRNDV profile — this is precisely the information a payload
// hint buys (§4.4).
func SelectPlan(r hints.Resolved, cores int, size int, threshold int) Plan {
	if threshold <= 0 {
		threshold = DefaultRndvThreshold
	}
	if size <= 0 {
		size = r.PayloadSize
	}
	sub := r.Subscription(cores)
	small := size <= threshold

	var plan Plan
	switch {
	case size <= 0 && r.Goal != hints.GoalLatency:
		// Without payload knowledge the engine cannot size the pre-known
		// direct buffers, so it stays on the adaptive hybrid. (The latency
		// goal still pins Direct-WriteIMM: latency-hinted functions accept
		// the max-size buffer reservation.)
		plan = Plan{Proto: HybridEagerRNDV, Busy: sub == hints.UnderSubscribed}
	case r.Goal == hints.GoalLatency:
		plan = Plan{Proto: DirectWriteIMM, Busy: true}
	case r.Goal == hints.GoalResUtil:
		switch {
		case sub == hints.UnderSubscribed && small:
			plan = Plan{Proto: DirectWriteIMM, Busy: false}
		case sub == hints.UnderSubscribed:
			plan = Plan{Proto: WriteRNDV, Busy: false}
		case small:
			plan = Plan{Proto: EagerSendRecv, Busy: false}
		default:
			plan = Plan{Proto: WriteRNDV, Busy: false}
		}
	default: // throughput (and unknown goals default here)
		switch {
		case sub == hints.UnderSubscribed:
			plan = Plan{Proto: DirectWriteIMM, Busy: true}
		case sub == hints.OverSubscribed && size >= RFPMinSize:
			// The paper's Figure 6 cell: RFP's server bypass pays off once
			// messages are big enough that relieving the server's send
			// path matters. RFPMinSize confines the choice to that regime;
			// it is not a crossover measured here — in this NIC model both
			// pin the link at 128 KB from 16 clients up and RFP trails
			// Direct-WriteIMM by ≈ 3 % there (Fig. 5, event: 92.4 against
			// 95.1 Kops/s at 64–512 clients; EXPERIMENTS.md, deviation 2).
			plan = Plan{Proto: RFP, Busy: false}
		default:
			plan = Plan{Proto: DirectWriteIMM, Busy: false}
		}
	}
	switch r.Polling {
	case hints.PollBusy:
		plan.Busy = true
	case hints.PollEvent:
		plan.Busy = false
	}
	return plan
}
