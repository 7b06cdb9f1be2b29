package atb

// Fan-in point runner: goodput and tail latency of one population of
// *connected virtual clients* over the connection-virtualization tier
// (DESIGN.md §14). Physical transport is a bounded shared-QP pool backed
// by a server-side SRQ; virtual clients are plain VConn structs
// multiplexed over it, so NIC state (QPs, receive rings, pinned memory)
// stays constant while the session population grows.
//
// The point makes shared-QP head-of-line blocking visible: a small
// fraction of virtual clients are bulk senders (large payload, long
// handler), and with a small pool and one FIFO borrow queue every
// latency-sensitive call behind them eats their occupancy. The hinted
// run shows the recovery path the paper's hint system prescribes: a
// "concurrency" hint sizes the physical pool to the real borrower
// concurrency (goodput), and a "priority" hint splits the borrow queue
// into classes so small calls overtake bulk ones (p99).

import (
	"fmt"
	"strconv"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/stats"
)

// faninConfig parameterizes one fan-in point.
type faninConfig struct {
	VClients int // connected virtual connections
	Pool     int // physical shared-QP pool size (the unhinted baseline)
	// MaxPool caps hint-driven pool growth — the stand-in for NIC
	// QP-cache reach, past which more QPs stop helping.
	MaxPool int
	// Tenants spreads the small virtual clients over admission
	// partitions 1..Tenants-1; tenant 0 is reserved for bulk clients.
	Tenants int
	// Workers is the number of borrower procs driving the virtual-client
	// population — the actual concurrency the pool sees. Virtual clients
	// are structs, not procs: each worker walks the population in
	// stride, issuing one call per visit.
	Workers int

	Size         int   // latency-sensitive payload bytes
	BigSize      int   // bulk payload bytes — the HOL aggressor
	BigEvery     int   // every Nth virtual client is a bulk client
	ServiceNs    int64 // handler CPU per small request
	BigServiceNs int64 // handler CPU per bulk request

	SRQSlots   int // shared server receive ring depth
	WarmupNs   int64
	DurationNs int64
	Seed       int64
}

// smallFanin is a CI-sized point: enough virtual clients and bulk
// aggressors (one per 16) for head-of-line blocking to show on a pool of
// 2 under 16 borrowers, small enough to run in seconds.
func smallFanin() faninConfig {
	return faninConfig{
		VClients:     1000,
		Pool:         2,
		MaxPool:      8,
		Tenants:      8,
		Workers:      16,
		Size:         512,
		BigSize:      131072,
		BigEvery:     16,
		ServiceNs:    2_000,
		BigServiceNs: 500_000,
		SRQSlots:     64,
		WarmupNs:     1_000_000,
		DurationNs:   8_000_000,
		Seed:         131,
	}
}

// faninPoint is one (hinted or not) measurement.
type faninPoint struct {
	EffPool int // pool actually used (concurrency hint may grow it)

	GoodputOps float64 // successful calls/s, small + bulk
	AvgSmallNs float64 // mean latency of small calls
	P99SmallNs float64 // tail of small calls — where HOL blocking shows
	P99BulkNs  float64

	Waits    int64 // pool borrows that parked on the queue
	Sessions int64 // virtual connections opened
	PinnedKB int64 // server pinned memory — flat as sessions grow
	RnrNaks  int64 // shared-ring RNR NAKs on the server NIC
}

// isBulkClient fixes each virtual client's class by its index, so the
// population is identical across hinted and unhinted runs.
func (cfg *faninConfig) isBulkClient(i int) bool { return i%cfg.BigEvery == 0 }

// tenantOf spreads small clients over tenants 1..Tenants-1 and pins
// bulk clients to tenant 0, the partition an operator would cap.
func (cfg *faninConfig) tenantOf(i int) uint32 {
	if cfg.isBulkClient(i) {
		return 0
	}
	return uint32(1 + i%(cfg.Tenants-1))
}

func runOneFanin(cfg faninConfig, hinted bool) faninPoint {
	ecfg := engineConfigFor(cfg.BigSize, false)
	ecfg.SRQSlots = cfg.SRQSlots
	ecfg.ModelRNR = true
	ecfg.RnrRetry = 40
	f := Testbed{}.newFabric(cfg.Seed, 2, cfg.BigSize, ecfg)
	reg := obs.NewRegistry()
	f.Server.SetObs(reg)
	f.Server.Serve("atb", func(p *sim.Proc, fn uint32, req []byte) []byte {
		cost := cfg.ServiceNs
		if fn == 2 {
			cost = cfg.BigServiceNs
		}
		f.Server.Node().CPU.Compute(p, sim.Duration(cost))
		return req[:4]
	})

	// The hints are the recovery levers: "concurrency" states the real
	// borrower concurrency so the transport sizes the physical pool to
	// it (clamped at QP-cache reach), and "priority" opens the two-class
	// borrow queue. Unhinted runs take the configured pool as-is, FIFO.
	eff := cfg.Pool
	pcfg := engine.VPoolConfig{Size: cfg.Pool}
	var bulkHints, smallHints hints.Resolved
	if hinted {
		shared := hints.TypeCheck(hints.Group{hints.KeyConcurrency: strconv.Itoa(cfg.Workers)})
		eff = engine.HintedPoolSize(shared, cfg.Pool, cfg.MaxPool)
		pcfg = engine.VPoolConfig{Size: eff, Priority: true}
		bulkHints = hints.TypeCheck(hints.Group{hints.KeyPriority: "low"})
		smallHints = hints.TypeCheck(hints.Group{hints.KeyPriority: "high"})
	}

	warmup := sim.Time(cfg.WarmupNs)
	end := warmup + sim.Time(cfg.DurationNs)
	var succ int
	var latSmall, latBulk stats.Sample
	var pl *engine.VPool
	f.Env.Spawn("fanin", func(p *sim.Proc) {
		pl = f.Clients[0].DialPool(p, f.Server.Node(), "atb", pcfg)
		// The connected population: every virtual client exists for the
		// whole run. Opening one is pure bookkeeping, no NIC state.
		vcs := make([]*engine.VConn, cfg.VClients)
		for i := range vcs {
			h := smallHints
			if cfg.isBulkClient(i) {
				h = bulkHints
			}
			vcs[i] = pl.Open(cfg.tenantOf(i), h)
		}
		small := make([]byte, cfg.Size)
		big := make([]byte, cfg.BigSize)
		// Small calls ride the eager path; bulk goes rendezvous, whose
		// RTS header also exercises sid-keyed dedup on the server.
		smallOpts := engine.CallOpts{Proto: engine.EagerSendRecv, RespProto: engine.DirectWriteIMM, Busy: true}
		bulkOpts := engine.CallOpts{Proto: engine.WriteRNDV, RespProto: engine.DirectWriteIMM, Busy: true}
		running := cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			w := w
			f.Env.Spawn(fmt.Sprintf("wk%d", w), func(wp *sim.Proc) {
				cursor := w
				for wp.Now() < end {
					i := cursor % cfg.VClients
					cursor += cfg.Workers
					fn, payload, opts := uint32(1), small, smallOpts
					if cfg.isBulkClient(i) {
						fn, payload, opts = 2, big, bulkOpts
					}
					issued := wp.Now()
					_, err := vcs[i].Call(wp, fn, payload, opts)
					if err != nil {
						panic(err) // no admission limit is set: nothing sheds
					}
					if issued < warmup {
						continue
					}
					succ++
					if fn == 2 {
						latBulk.Add(float64(wp.Now() - issued))
					} else {
						latSmall.Add(float64(wp.Now() - issued))
					}
				}
				if running--; running == 0 {
					f.Env.Stop()
				}
			})
		}
	})
	f.Env.Run()
	f.Env.Shutdown()

	return faninPoint{
		EffPool:    eff,
		GoodputOps: float64(succ) / (float64(cfg.DurationNs) / 1e9),
		AvgSmallNs: latSmall.Mean(),
		P99SmallNs: latSmall.Percentile(99),
		P99BulkNs:  latBulk.Percentile(99),
		Waits:      pl.Waits,
		Sessions:   pl.Sessions,
		PinnedKB:   f.Server.PinnedBytes() / 1024,
		RnrNaks:    reg.Counter("verbs.rnr_naks").Value(),
	}
}

// TestFaninByteIdenticalReplay: a fan-in point is a deterministic
// simulation — same seed, same measurement, field for field.
func TestFaninByteIdenticalReplay(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		a, b := runOneFanin(smallFanin(), hinted), runOneFanin(smallFanin(), hinted)
		if a != b {
			t.Fatalf("fanin replay diverged (hinted=%v):\nrun 1: %+v\nrun 2: %+v", hinted, a, b)
		}
	}
}

// TestFaninHintsRecoverHOL is the acceptance check for the
// virtualization tier: on an oversubscribed shared-QP pool with bulk
// aggressors, the concurrency hint (pool sizing) and priority hint
// (two-class borrow queue) must measurably recover both goodput and
// small-call tail latency versus the unhinted FIFO baseline.
func TestFaninHintsRecoverHOL(t *testing.T) {
	base := runOneFanin(smallFanin(), false)
	hinted := runOneFanin(smallFanin(), true)
	if hinted.EffPool <= base.EffPool {
		t.Fatalf("concurrency hint did not grow the pool (%d -> %d)", base.EffPool, hinted.EffPool)
	}
	if hinted.GoodputOps <= base.GoodputOps {
		t.Errorf("hints did not recover goodput: %.0f -> %.0f ops/s", base.GoodputOps, hinted.GoodputOps)
	}
	if hinted.P99SmallNs >= base.P99SmallNs {
		t.Errorf("hints did not recover small-call p99: %.0f -> %.0f ns", base.P99SmallNs, hinted.P99SmallNs)
	}
	if base.Waits == 0 {
		t.Error("baseline pool never queued a borrower — HOL blocking unexercised")
	}
	// The population is identical in both runs; only the transport
	// changed underneath it.
	if base.Sessions != hinted.Sessions {
		t.Errorf("session population differs: %d vs %d", base.Sessions, hinted.Sessions)
	}
}
