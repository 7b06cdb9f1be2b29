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

// The protocols of Figure 3, plus the Hybrid-EagerRNDV baseline used
// throughout the paper's evaluation.
const (
	// ProtoAuto defers the choice: as a CallOpts.RespProto it means "same
	// as the request protocol"; in a plan it means "let hints decide".
	ProtoAuto Protocol = iota
	// EagerSendRecv copies the payload into a pre-posted circular-buffer
	// slot and SENDs it (Fig. 3a).
	EagerSendRecv
	// DirectWriteSend WRITEs into a pre-known remote buffer and SENDs a
	// separate notification (Fig. 3b): two doorbells.
	DirectWriteSend
	// ChainedWriteSend chains the WRITE and SEND into one work-request
	// chain (Fig. 3c): one doorbell, less MMIO.
	ChainedWriteSend
	// WriteRNDV is the RDMA-WRITE-based rendezvous protocol (Fig. 3d):
	// RTS → CTS(buffer) → WRITE_WITH_IMM.
	WriteRNDV
	// ReadRNDV is the RDMA-READ-based rendezvous protocol (Fig. 3e):
	// RTS(rkey) → target READs payload.
	ReadRNDV
	// DirectWriteIMM replaces Chained-Write-Send's pair with a single
	// WRITE_WITH_IMM (Fig. 3f).
	DirectWriteIMM
	// Pilaf emulates Pilaf's server-bypass GETs: ~3 READs per request
	// (two metadata, one payload) (Fig. 3g).
	Pilaf
	// FaRM emulates FaRM's ≥2 READs per GET (index + value) (Fig. 3h).
	FaRM
	// RFP is the remote-fetching paradigm (Fig. 3i): WRITE the request
	// into the server, server CPU polls memory, client READs the
	// response back.
	RFP
	// HERD emulates HERD's hybrid: request via WRITE into a polled
	// server slot, response via SEND. Used by the YCSB comparison.
	HERD
	// HybridEagerRNDV is the vanilla adaptive baseline: Eager-SendRecv at
	// or below the threshold (4 KB), Write-RNDV above it.
	HybridEagerRNDV
	// HybridEagerRead emulates AR-gRPC's adaptive pair: Eager-SendRecv at
	// or below the threshold, Read-RNDV above it.
	HybridEagerRead
)

func (pr Protocol) String() string {
	switch pr {
	case ProtoAuto:
		return "auto"
	case EagerSendRecv:
		return "Eager-SendRecv"
	case DirectWriteSend:
		return "Direct-Write-Send"
	case ChainedWriteSend:
		return "Chained-Write-Send"
	case WriteRNDV:
		return "Write-RNDV"
	case ReadRNDV:
		return "Read-RNDV"
	case DirectWriteIMM:
		return "Direct-WriteIMM"
	case Pilaf:
		return "Pilaf"
	case FaRM:
		return "FaRM"
	case RFP:
		return "RFP"
	case HERD:
		return "HERD"
	case HybridEagerRNDV:
		return "Hybrid-EagerRNDV"
	case HybridEagerRead:
		return "Hybrid-EagerRead(AR-gRPC)"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(pr))
}

// AllProtocols lists every protocol the engine implements, in Fig. 3
// order.
var AllProtocols = []Protocol{
	EagerSendRecv, DirectWriteSend, ChainedWriteSend, WriteRNDV, ReadRNDV,
	DirectWriteIMM, Pilaf, FaRM, RFP, HERD, HybridEagerRNDV,
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
			// it is not a crossover measured here — in this NIC model RFP
			// trails Direct-WriteIMM at every size (EXPERIMENTS.md,
			// deviation 2).
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
