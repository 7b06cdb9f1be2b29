// Command figures regenerates every table and figure of the paper's
// evaluation (§5) into the results/ directory: Figures 4, 5, 11, 12, 13,
// 14 (ATB), 15, 16 (YCSB) and 17 (TPC-H), plus the derived percentage
// claims quoted in the §5 text.
//
// Usage:
//
//	figures [-out results] [-only fig04,fig15,...] [-metrics] [-trace FILE]
//	        [-faults] [-loss P] [-jitter NS] [-deadline NS]
//
// -metrics writes the obs counter/histogram/gauge tables accumulated
// across the ATB sweeps to results/metrics.txt; -trace writes a
// deterministic chrome://tracing JSON event trace to FILE.
//
// -faults enables fault injection on the ATB fabrics (1% per-hop loss
// unless -loss/-jitter override; either implies -faults) and arms the
// engine deadline/retry layer so sweeps complete under loss via
// retransmission. -deadline (default 2 ms) is the floor: a sweep point
// whose message size needs more attempts at the loss rate gets a longer
// one (engine.LossDeadline).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hatrpc/internal/atb"
	"hatrpc/internal/obs"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
	"hatrpc/internal/tpch"
	"hatrpc/internal/ycsb"
)

var outDir string

func main() {
	flag.StringVar(&outDir, "out", "results", "output directory")
	only := flag.String("only", "", "comma-separated subset (fig04..fig17,derived)")
	metrics := flag.Bool("metrics", false, "write obs tables to results/metrics.txt")
	traceFile := flag.String("trace", "", "write a chrome://tracing JSON event trace to FILE")
	faults := flag.Bool("faults", false, "inject faults: 1% per-hop packet loss unless -loss/-jitter override")
	loss := flag.Float64("loss", 0, "per-hop drop probability, e.g. 0.05 (implies -faults)")
	jitter := flag.Int64("jitter", 0, "max per-hop latency jitter in ns (implies -faults)")
	deadline := flag.Int64("deadline", 2_000_000, "per-call deadline floor in ns for fault runs (0 = no deadline: one unbounded attempt, never re-sent)")
	flag.Parse()

	if *faults || *loss > 0 || *jitter > 0 {
		p := *loss
		if p == 0 && *jitter == 0 {
			p = 0.01
		}
		atb.FaultSpec = &simnet.FaultConfig{DropProb: p, JitterNs: *jitter}
		atb.CallDeadlineNs = *deadline
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics || *traceFile != "" {
		reg = obs.NewRegistry()
		if *traceFile != "" {
			tracer = obs.NewTracer()
			reg.SetTracer(tracer)
		}
		runIdx := 0
		atb.FabricHook = func(f *atb.Fabric) {
			tracer.SetPIDOffset(runIdx * 16)
			runIdx++
			for _, e := range f.Engines() {
				e.SetObs(reg)
			}
			if fp := f.Cluster.Faults(); fp != nil {
				fp.SetObs(reg)
			}
		}
	}
	defer func() {
		if *metrics {
			path := filepath.Join(outDir, "metrics.txt")
			if err := os.WriteFile(path, []byte(reg.Render()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("  wrote %s\n", path)
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := tracer.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("  wrote %d trace events to %s\n", tracer.Len(), *traceFile)
		}
	}()
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	run := func(name string, fn func() string) {
		if len(want) > 0 && !want[name] {
			return
		}
		fmt.Printf("generating %s...\n", name)
		content := fn()
		path := filepath.Join(outDir, name+".txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s\n", path)
	}

	var fig11Pts []atb.HintLatencyPoint
	var fig17Res []tpch.QueryResult

	run("fig04", fig04)
	run("fig05", fig05)
	run("fig11", func() string {
		s, pts := fig11()
		fig11Pts = pts
		return s
	})
	run("fig12", fig12)
	run("fig13", func() string { return figMix(atb.DefaultMixConfig512(), 13) })
	run("fig14", func() string { return figMix(atb.DefaultMixConfig128K(), 14) })
	run("fig15", func() string { return figYCSB(ycsb.WorkloadA(3000), 15) })
	run("fig16", func() string { return figYCSB(ycsb.WorkloadB(3000), 16) })
	run("fig17", func() string {
		s, res := fig17()
		fig17Res = res
		return s
	})
	run("derived", func() string { return derived(fig11Pts, fig17Res) })
}

func header(fig, caption string) string {
	return fmt.Sprintf("%s — %s\n(simulated reproduction; shapes comparable, absolute values are the simulator's)\n\n", fig, caption)
}

func poll(b bool) string {
	if b {
		return "busy"
	}
	return "event"
}

func fig04() string {
	cfg := atb.DefaultProtoLatencyConfig()
	pts := atb.RunProtoLatency(cfg)
	tb := stats.NewTable("protocol", "polling", "size", "avg", "p99")
	for _, p := range pts {
		tb.Row(p.Proto.String(), poll(p.Busy), stats.FormatBytes(p.Size),
			stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns))
	}
	return header("Figure 4", "RPC-like latency of nine RDMA protocols × polling mechanism") + tb.String()
}

func fig05() string {
	pts := atb.RunProtoThroughput(atb.DefaultProtoThroughputConfig())
	tb := stats.NewTable("protocol", "polling", "size", "clients", "Kops/s", "MB/s")
	for _, p := range pts {
		tb.Row(p.Proto.String(), poll(p.Busy), stats.FormatBytes(p.Size), p.Clients,
			fmt.Sprintf("%.1f", p.OpsPerS/1000), fmt.Sprintf("%.1f", p.MBps))
	}
	return header("Figure 5", "multi-client throughput of RDMA protocols × polling (under/full/over subscription)") + tb.String()
}

func fig11() (string, []atb.HintLatencyPoint) {
	pts := atb.RunHintLatency(atb.DefaultHintLatencyConfig())
	tb := stats.NewTable("system", "size", "avg", "p99")
	for _, p := range pts {
		tb.Row(p.System, stats.FormatBytes(p.Size), stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns))
	}
	return header("Figure 11", "service-level hints: latency vs fixed-protocol baselines") + tb.String(), pts
}

func fig12() string {
	cfg := atb.DefaultHintThroughputConfig()
	pts := atb.RunHintThroughput(cfg)
	tb := stats.NewTable("system", "size", "clients", "Kops/s", "MB/s")
	for _, p := range pts {
		tb.Row(p.System, stats.FormatBytes(p.Size), p.Clients,
			fmt.Sprintf("%.1f", p.OpsPerS/1000), fmt.Sprintf("%.1f", p.MBps))
	}
	return header("Figure 12", "service-level hints: aggregated throughput, 1–512 clients") + tb.String()
}

func figMix(cfg atb.MixConfig, fig int) string {
	pts := atb.RunMix(cfg)
	tb := stats.NewTable("system", "clients", "lat-call avg", "tput-call Kops/s")
	for _, p := range pts {
		tb.Row(p.System, p.Clients, stats.FormatNs(p.LatAvgNs), fmt.Sprintf("%.1f", p.TputOpsS/1000))
	}
	return header(fmt.Sprintf("Figure %d", fig),
		fmt.Sprintf("function-level hints: 50/50 mixed workload, %s payloads", stats.FormatBytes(cfg.Size))) + tb.String()
}

func figYCSB(w ycsb.Workload, fig int) string {
	cfg := ycsb.DefaultRunConfig(w)
	results := ycsb.Run(cfg)
	thr := stats.NewTable("system", "total Kops/s", "Get", "Put", "MGet", "MPut")
	lat := stats.NewTable("system", "Get µs", "Put µs", "MGet µs", "MPut µs")
	for _, r := range results {
		thr.Row(r.System.String(), fmt.Sprintf("%.1f", r.TotalOps/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpGet].OpsPerS/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpPut].OpsPerS/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpMultiGet].OpsPerS/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpMultiPut].OpsPerS/1000))
		lat.Row(r.System.String(),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpGet].AvgLatNs/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpPut].AvgLatNs/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpMultiGet].AvgLatNs/1000),
			fmt.Sprintf("%.1f", r.PerOp[ycsb.OpMultiPut].AvgLatNs/1000))
	}
	return header(fmt.Sprintf("Figure %d", fig),
		fmt.Sprintf("HatKV with YCSB-%s, 128 clients: (a) throughput (b) latency", w.Name)) +
		"(a) Throughput per operation (Kops/s)\n" + thr.String() +
		"\n(b) Average latency per operation (µs)\n" + lat.String()
}

func fig17() (string, []tpch.QueryResult) {
	cfg := tpch.DefaultBenchConfig()
	results := tpch.RunBench(cfg)
	byQS := map[int]map[tpch.Stack]int64{}
	var qs []int
	for _, r := range results {
		if byQS[r.Query] == nil {
			byQS[r.Query] = map[tpch.Stack]int64{}
			qs = append(qs, r.Query)
		}
		byQS[r.Query][r.Stack] = r.TimeNs
	}
	tb := stats.NewTable("query", "IPoIB", "HatRPC-Svc", "HatRPC-Fn", "Svc speedup", "Fn speedup")
	totals := map[tpch.Stack]int64{}
	for _, q := range qs {
		m := byQS[q]
		for s, t := range m {
			totals[s] += t
		}
		tb.Row(fmt.Sprintf("Q%d", q),
			stats.FormatNs(float64(m[tpch.StackIPoIB])),
			stats.FormatNs(float64(m[tpch.StackHatService])),
			stats.FormatNs(float64(m[tpch.StackHatFunction])),
			ratio(m[tpch.StackIPoIB], m[tpch.StackHatService]),
			ratio(m[tpch.StackIPoIB], m[tpch.StackHatFunction]))
	}
	tb.Row("TOTAL",
		stats.FormatNs(float64(totals[tpch.StackIPoIB])),
		stats.FormatNs(float64(totals[tpch.StackHatService])),
		stats.FormatNs(float64(totals[tpch.StackHatFunction])),
		ratio(totals[tpch.StackIPoIB], totals[tpch.StackHatService]),
		ratio(totals[tpch.StackIPoIB], totals[tpch.StackHatFunction]))
	return header("Figure 17", "TPC-H query execution time across three RPC stacks (SF0.02 simulated)") + tb.String(), results
}

// derived reproduces the §5.2/§5.5 textual claims from the measured data.
func derived(fig11Pts []atb.HintLatencyPoint, fig17Res []tpch.QueryResult) string {
	var b strings.Builder
	b.WriteString("Derived claims (paper §5.2 / §5.5 text)\n\n")
	if len(fig11Pts) == 0 {
		fig11Pts = atb.RunHintLatency(atb.DefaultHintLatencyConfig())
	}
	bySys := map[string]map[int]float64{}
	for _, p := range fig11Pts {
		if bySys[p.System] == nil {
			bySys[p.System] = map[int]float64{}
		}
		bySys[p.System][p.Size] = p.AvgNs
	}
	imp := func(base string, small bool) (lo, hi float64) {
		lo, hi = 1e18, -1e18
		for size, hat := range bySys["HatRPC"] {
			if (size <= 4096) != small {
				continue
			}
			bl, ok := bySys[base][size]
			if !ok || bl == 0 {
				continue
			}
			v := 100 * (bl - hat) / bl
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}
	for _, base := range []string{"Hybrid-EagerRNDV", "Direct-Write-Send", "RFP"} {
		slo, shi := imp(base, true)
		llo, lhi := imp(base, false)
		fmt.Fprintf(&b, "Fig.11 latency improvement vs %-18s ≤4KB: %5.1f%%–%5.1f%%   >4KB: %5.1f%%–%5.1f%%\n",
			base+":", slo, shi, llo, lhi)
	}
	b.WriteString("(paper: ≤4KB 37–54% vs Hybrid, ≤21% vs DWS, 18–25% vs RFP; >4KB 20–51%, ≤38%, ≤55%)\n\n")

	if len(fig17Res) == 0 {
		fig17Res = tpch.RunBench(tpch.DefaultBenchConfig())
	}
	totals := map[tpch.Stack]int64{}
	best := map[tpch.Stack]float64{}
	bestQ := map[tpch.Stack]int{}
	byQ := map[int]map[tpch.Stack]int64{}
	for _, r := range fig17Res {
		totals[r.Stack] += r.TimeNs
		if byQ[r.Query] == nil {
			byQ[r.Query] = map[tpch.Stack]int64{}
		}
		byQ[r.Query][r.Stack] = r.TimeNs
	}
	for q, m := range byQ {
		for _, s := range []tpch.Stack{tpch.StackHatService, tpch.StackHatFunction} {
			if m[s] > 0 {
				sp := float64(m[tpch.StackIPoIB]) / float64(m[s])
				if sp > best[s] {
					best[s] = sp
					bestQ[s] = q
				}
			}
		}
	}
	svcTotal := 100 * (1 - float64(totals[tpch.StackHatService])/float64(totals[tpch.StackIPoIB]))
	fnX := float64(totals[tpch.StackIPoIB]) / float64(totals[tpch.StackHatFunction])
	fnVsSvc := float64(totals[tpch.StackHatService]) / float64(totals[tpch.StackHatFunction])
	fmt.Fprintf(&b, "Fig.17 TPC-H totals: HatRPC-Service cuts total time %.1f%% (paper: 7.2%%)\n", svcTotal)
	fmt.Fprintf(&b, "Fig.17 HatRPC-Function vs IPoIB total: %.2fx (paper: 1.27x); vs Service: %.2fx (paper: 1.18x)\n", fnX, fnVsSvc)
	fmt.Fprintf(&b, "Fig.17 best per-query speedups: Service %.2fx on Q%d (paper: 1.21x on Q20), Function %.2fx on Q%d (paper: 1.51x on Q19)\n",
		best[tpch.StackHatService], bestQ[tpch.StackHatService],
		best[tpch.StackHatFunction], bestQ[tpch.StackHatFunction])
	return b.String()
}

func ratio(base, v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(v))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
