package atb

import (
	"math"
	"testing"

	"hatrpc/internal/engine"
)

// fastLatency keeps unit-test runtime small.
func fastLatency(protos ...engine.Protocol) Sweep {
	return Sweep{Subjects: rawBothPollings(protos...), Sizes: []int{64, 131072}, Iters: 8, Seed: 1}
}

func TestProtoLatencyShapes(t *testing.T) {
	pts := fastLatency(engine.EagerSendRecv, engine.DirectWriteIMM, engine.RFP, engine.WriteRNDV).Run()
	get := func(proto engine.Protocol, busy bool, size int) Point {
		for _, p := range pts {
			if p.Proto == proto && p.Busy == busy && p.Size == size {
				return p
			}
		}
		t.Fatalf("missing point %v busy=%v size=%d", proto, busy, size)
		return Point{}
	}
	// Busy polling beats event polling for every protocol/size (Fig. 4).
	for _, proto := range []engine.Protocol{engine.EagerSendRecv, engine.DirectWriteIMM, engine.RFP} {
		for _, size := range []int{64, 131072} {
			b, e := get(proto, true, size), get(proto, false, size)
			if b.AvgNs >= e.AvgNs {
				t.Errorf("%v size %d: busy %.0f >= event %.0f", proto, size, b.AvgNs, e.AvgNs)
			}
		}
	}
	// Direct-WriteIMM is the best busy-polled small-message protocol.
	imm := get(engine.DirectWriteIMM, true, 64)
	for _, proto := range []engine.Protocol{engine.EagerSendRecv, engine.RFP, engine.WriteRNDV} {
		if o := get(proto, true, 64); imm.AvgNs >= o.AvgNs {
			t.Errorf("WriteIMM (%.0f) not fastest vs %v (%.0f) at 64B", imm.AvgNs, proto, o.AvgNs)
		}
	}
	// Latency grows with size.
	if get(engine.DirectWriteIMM, true, 131072).AvgNs <= imm.AvgNs {
		t.Error("128KB not slower than 64B")
	}
}

func TestProtoThroughputOverSubscription(t *testing.T) {
	pts := Sweep{
		Subjects: rawBothPollings(engine.DirectWriteIMM),
		Sizes:    []int{512},
		Clients:  []int{4, 128},
		Seed:     2,
	}.Run()
	get := func(busy bool, clients int) Point {
		for _, p := range pts {
			if p.Busy == busy && p.Clients == clients {
				return p
			}
		}
		t.Fatal("missing point")
		return Point{}
	}
	// Fig. 5: under-subscription busy wins; over-subscription busy
	// polling degrades below event polling.
	if b, e := get(true, 4), get(false, 4); b.OpsPerS <= e.OpsPerS {
		t.Errorf("under-sub: busy %.0f <= event %.0f", b.OpsPerS, e.OpsPerS)
	}
	if b, e := get(true, 128), get(false, 128); b.OpsPerS >= e.OpsPerS {
		t.Errorf("over-sub: busy %.0f >= event %.0f (no collapse)", b.OpsPerS, e.OpsPerS)
	}
	// More clients must raise aggregate throughput under event polling.
	if get(false, 128).OpsPerS <= get(false, 4).OpsPerS {
		t.Error("event polling did not scale with clients")
	}
}

// TestWindowObeysLittlesLaw: every closed-loop client always has one call
// outstanding, so a window that counts the calls completing inside it must
// see clients = throughput × mean latency (Little's law), for raw and stub
// subjects, small and bulk payloads, below and at the link's capacity.
func TestWindowObeysLittlesLaw(t *testing.T) {
	for _, c := range []struct {
		sub           Subject
		size, clients int
	}{
		{Raw(engine.DirectWriteIMM, false), 512, 4},
		{Raw(engine.EagerSendRecv, true), 512, 64},
		{Raw(engine.DirectWriteIMM, true), 131072, 16},
		{systems()[0], 512, 16},
		{systems()[0], 131072, 64},
	} {
		p := Sweep{Subjects: []Subject{c.sub}, Sizes: []int{c.size}, Clients: []int{c.clients}, Seed: 5}.Run()[0]
		if n := p.OpsPerS * p.AvgNs / 1e9; math.Abs(n/float64(c.clients)-1) > 0.1 {
			t.Errorf("%s %dB × %d: %.0f ops/s × %.0f ns = %.1f clients in flight", c.sub.Name, c.size, c.clients, p.OpsPerS, p.AvgNs, n)
		}
	}
}

func TestHintLatencyHatRPCWins(t *testing.T) {
	pts := Sweep{Subjects: systems(), Sizes: []int{512, 131072}, Iters: 10, Seed: 3}.Run()
	bySystem := map[string]map[int]float64{}
	for _, p := range pts {
		if bySystem[p.Name] == nil {
			bySystem[p.Name] = map[int]float64{}
		}
		bySystem[p.Name][p.Size] = p.AvgNs
	}
	for _, size := range []int{512, 131072} {
		hat := bySystem["HatRPC"][size]
		if hat == 0 {
			t.Fatal("no HatRPC measurement")
		}
		// HatRPC must beat Hybrid-EagerRNDV and RFP (Fig. 11), and be
		// within noise of (or beat) Direct-WriteIMM since that is what the
		// hints select.
		if hyb := bySystem["Hybrid-EagerRNDV"][size]; hat >= hyb {
			t.Errorf("size %d: HatRPC %.0f >= Hybrid %.0f", size, hat, hyb)
		}
		if rfp := bySystem["RFP"][size]; hat >= rfp {
			t.Errorf("size %d: HatRPC %.0f >= RFP %.0f", size, hat, rfp)
		}
		imm := bySystem["Direct-WriteIMM"][size]
		if diff := (hat - imm) / imm; diff > 0.05 {
			t.Errorf("size %d: HatRPC %.0f more than 5%% above WriteIMM %.0f", size, hat, imm)
		}
	}
}

func TestMixBenchmarkRuns(t *testing.T) {
	pts := Sweep{
		Subjects: systems()[:2], // HatRPC, Hybrid-EagerRNDV
		Sizes:    []int{512},
		Clients:  []int{8},
		Mix:      true,
		Seed:     4,
	}.Run()
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	hat, hyb := pts[0], pts[1]
	if hat.AvgNs == 0 || hat.OpsPerS == 0 {
		t.Fatalf("empty mix measurement: %+v", hat)
	}
	if hat.AvgNs >= hyb.AvgNs {
		t.Errorf("mix: HatRPC latency %.0f >= Hybrid %.0f", hat.AvgNs, hyb.AvgNs)
	}
	if hat.OpsPerS <= hyb.OpsPerS {
		t.Errorf("mix: HatRPC throughput %.0f <= Hybrid %.0f", hat.OpsPerS, hyb.OpsPerS)
	}
}

func TestDeterministicBenchRuns(t *testing.T) {
	sw := fastLatency(engine.DirectWriteIMM)
	sw.Sizes = []int{512}
	a, b := sw.Run(), sw.Run()
	if a[0].AvgNs != b[0].AvgNs {
		t.Fatalf("nondeterministic: %v vs %v", a[0].AvgNs, b[0].AvgNs)
	}
}
