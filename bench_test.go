// Package main_test hosts the ablation benchmarks for the design choices
// DESIGN.md §7 calls out, plus two real-time benchmarks of the simulator
// itself. An ablation drives the full simulated cluster once and reports
// the paper's metric (virtual latency or virtual throughput) as custom
// units; the paper's figures come from cmd/figures.
package main_test

import (
	"fmt"
	"testing"

	"hatrpc/internal/atb"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
	"hatrpc/internal/ycsb"
)

// BenchmarkAblationChaining quantifies the chained-WR doorbell saving
// (Fig. 3b vs 3c).
func BenchmarkAblationChaining(b *testing.B) {
	for _, proto := range []engine.Protocol{engine.DirectWriteSend, engine.ChainedWriteSend} {
		b.Run(proto.String(), func(b *testing.B) {
			pts := atb.Sweep{
				Subjects: []atb.Subject{atb.Raw(proto, true)},
				Sizes:    []int{512}, Iters: 30, Seed: 1,
			}.Run()
			spin(b)
			b.ReportMetric(pts[0].AvgNs, "vlat-ns/op")
		})
	}
}

// BenchmarkAblationPolling isolates the polling mechanism at each
// subscription level.
func BenchmarkAblationPolling(b *testing.B) {
	for _, clients := range []int{4, 28, 256} {
		for _, busy := range []bool{true, false} {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, poll(busy)), func(b *testing.B) {
				pts := atb.Sweep{
					Subjects: []atb.Subject{atb.Raw(engine.DirectWriteIMM, busy)},
					Sizes:    []int{512}, Clients: []int{clients},
					DurationNs: 200_000, Seed: 3,
				}.Run()
				spin(b)
				b.ReportMetric(pts[0].OpsPerS, "vops/s")
			})
		}
	}
}

// BenchmarkAblationHintOverhead measures the dynamic-hint path: plan
// resolution cached (HatRPC's design) vs re-resolved per call.
func BenchmarkAblationHintOverhead(b *testing.B) {
	sh := &trdma.ServiceHints{
		ServiceName: "Echo",
		Service: hints.MakeSet(map[hints.Key]string{
			hints.KeyPerfGoal: "latency", hints.KeyConcurrency: "1",
		}, nil, nil),
		Functions: map[string]*hints.Set{"Ping": hints.NewSet()},
		FnIDs:     map[string]uint32{"Ping": 1},
		Oneway:    map[string]bool{},
	}
	b.Run("cached-plan", func(b *testing.B) {
		r := sh.Resolve("Ping", hints.SideClient)
		plan := engine.SelectPlan(r, 28, 512, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = plan // the cached pointer the paper describes (§4.3)
		}
	})
	b.Run("re-resolve-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := sh.Resolve("Ping", hints.SideClient)
			_ = engine.SelectPlan(r, 28, 512, 4096)
		}
	})
}

// BenchmarkAblationBackendHints measures the LMDB sync-mode knob HatKV
// tunes from hints (§4.4).
func BenchmarkAblationBackendHints(b *testing.B) {
	for _, mode := range []lmdb.SyncMode{lmdb.SyncFull, lmdb.SyncMeta, lmdb.NoSync} {
		b.Run(fmt.Sprintf("sync=%d", mode), func(b *testing.B) {
			env, err := lmdb.Open(lmdb.Options{MaxReaders: 8, Sync: mode})
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := env.BeginWrite()
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Put([]byte(ycsb.Key(i%500)), val); err != nil {
					b.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.Stats.SyncedCommits), "synced-commits")
		})
	}
}

// BenchmarkEngineCallRealTime measures the host-CPU cost of simulating
// one RPC (simulator efficiency, not a paper figure).
func BenchmarkEngineCallRealTime(b *testing.B) {
	benchEngineCall(b, nil)
}

// BenchmarkObsOverheadRealTime measures the same simulated RPC with the
// observability layer fully on (counters + histograms + tracer), to
// bound the cost of instrumentation versus the nil fast path above.
func BenchmarkObsOverheadRealTime(b *testing.B) {
	r := obs.NewRegistry()
	r.SetTracer(obs.NewTracer())
	benchEngineCall(b, r)
}

func benchEngineCall(b *testing.B, r *obs.Registry) {
	env := sim.NewEnv(1)
	cl := simnet.NewCluster(env, simnet.DefaultConfig())
	srvEng := engine.New(cl.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	if r != nil {
		srvEng.SetObs(r)
		cliEng.SetObs(r)
	}
	srv := srvEng.Serve("svc", func(p *sim.Proc, fn uint32, req []byte) []byte { return req })
	srv.Busy = true
	payload := make([]byte, 512)
	b.ResetTimer()
	env.Spawn("client", func(p *sim.Proc) {
		c := cliEng.Dial(p, srvEng.Node(), "svc")
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(p, 1, payload, engine.CallOpts{Proto: engine.DirectWriteIMM, Busy: true}); err != nil {
				panic(err)
			}
		}
		env.Stop()
	})
	env.Run()
}

func poll(busy bool) string {
	if busy {
		return "busy"
	}
	return "event"
}

// spin satisfies the b.N contract for benchmarks whose heavy work is a
// single deterministic simulation: the simulation runs once and the
// measured loop is free, so `go test -bench` terminates quickly while
// the reported custom metrics carry the virtual-time results.
func spin(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
	}
}
