package atb

import (
	"testing"

	"hatrpc/internal/engine"
)

// fastLatencyCfg keeps unit-test runtime small.
func fastLatencyCfg() ProtoLatencyConfig {
	return ProtoLatencyConfig{
		Protos: []engine.Protocol{engine.EagerSendRecv, engine.DirectWriteIMM, engine.RFP, engine.WriteRNDV},
		Busy:   []bool{true, false},
		Sizes:  []int{64, 131072},
		Iters:  8,
		Seed:   1,
	}
}

func TestProtoLatencyShapes(t *testing.T) {
	pts := RunProtoLatency(fastLatencyCfg())
	get := func(proto engine.Protocol, busy bool, size int) LatencyPoint {
		for _, p := range pts {
			if p.Proto == proto && p.Busy == busy && p.Size == size {
				return p
			}
		}
		t.Fatalf("missing point %v busy=%v size=%d", proto, busy, size)
		return LatencyPoint{}
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
	cfg := ProtoThroughputConfig{
		Protos:     []engine.Protocol{engine.DirectWriteIMM},
		Busy:       []bool{true, false},
		Sizes:      []int{512},
		Clients:    []int{4, 128},
		DurationNs: 150_000,
		Seed:       2,
	}
	pts := RunProtoThroughput(cfg)
	get := func(busy bool, clients int) ThroughputPoint {
		for _, p := range pts {
			if p.Busy == busy && p.Clients == clients {
				return p
			}
		}
		t.Fatal("missing point")
		return ThroughputPoint{}
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

func TestHintLatencyHatRPCWins(t *testing.T) {
	cfg := HintLatencyConfig{
		Systems: DefaultSystems(),
		Sizes:   []int{512, 131072},
		Iters:   10,
		Seed:    3,
	}
	pts := RunHintLatency(cfg)
	bySystem := map[string]map[int]float64{}
	for _, p := range pts {
		if bySystem[p.System] == nil {
			bySystem[p.System] = map[int]float64{}
		}
		bySystem[p.System][p.Size] = p.AvgNs
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
	cfg := MixConfig{
		Systems:    []System{{Name: "HatRPC", Force: engine.ProtoAuto}, {Name: "Hybrid-EagerRNDV", Force: engine.HybridEagerRNDV}},
		Size:       512,
		Clients:    []int{8},
		DurationNs: 150_000,
		Seed:       4,
	}
	pts := RunMix(cfg)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	var hat, hyb MixPoint
	for _, p := range pts {
		if p.System == "HatRPC" {
			hat = p
		} else {
			hyb = p
		}
	}
	if hat.LatAvgNs == 0 || hat.TputOpsS == 0 {
		t.Fatalf("empty mix measurement: %+v", hat)
	}
	if hat.LatAvgNs >= hyb.LatAvgNs {
		t.Errorf("mix: HatRPC latency %.0f >= Hybrid %.0f", hat.LatAvgNs, hyb.LatAvgNs)
	}
	if hat.TputOpsS <= hyb.TputOpsS {
		t.Errorf("mix: HatRPC throughput %.0f <= Hybrid %.0f", hat.TputOpsS, hyb.TputOpsS)
	}
}

func TestDeterministicBenchRuns(t *testing.T) {
	cfg := fastLatencyCfg()
	cfg.Protos = []engine.Protocol{engine.DirectWriteIMM}
	cfg.Sizes = []int{512}
	a := RunProtoLatency(cfg)
	b := RunProtoLatency(cfg)
	if a[0].AvgNs != b[0].AvgNs {
		t.Fatalf("nondeterministic: %v vs %v", a[0].AvgNs, b[0].AvgNs)
	}
}
