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
// -metrics writes the Prometheus text exposition of the obs instruments
// accumulated across the ATB sweeps to results/metrics.txt; -trace
// writes a deterministic chrome://tracing JSON event trace to FILE.
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
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"hatrpc/internal/atb"
	"hatrpc/internal/obs"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
	"hatrpc/internal/tpch"
	"hatrpc/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// atbFigure renders one ATB figure: a sweep, its table columns and how a
// point becomes a row.
type atbFigure struct {
	name, title, caption string
	sweep                atb.Sweep
	cols                 []string
	row                  func(atb.Point) []any
}

func latRow(p atb.Point) []any {
	return []any{p.Name, stats.FormatBytes(p.Size), stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns)}
}

func tputRow(p atb.Point) []any {
	return []any{p.Name, stats.FormatBytes(p.Size), p.Clients, fmt.Sprintf("%.1f", p.OpsPerS/1000), fmt.Sprintf("%.1f", p.MBps)}
}

func mixRow(p atb.Point) []any {
	return []any{p.Name, p.Clients, stats.FormatNs(p.AvgNs), fmt.Sprintf("%.1f", p.OpsPerS/1000)}
}

// withPolling inserts the raw figures' polling column after the protocol.
func withPolling(row func(atb.Point) []any) func(atb.Point) []any {
	return func(p atb.Point) []any {
		poll := "event"
		if p.Busy {
			poll = "busy"
		}
		r := row(p)
		return append([]any{r[0], poll}, r[1:]...)
	}
}

var mixCols = []string{"system", "clients", "lat-call avg", "tput-call Kops/s"}

// fig11 is named because the derived claims reuse its points.
var fig11 = atbFigure{"fig11", "Figure 11", "service-level hints: latency vs fixed-protocol baselines",
	atb.Fig11(), []string{"system", "size", "avg", "p99"}, latRow}

var atbFigures = []atbFigure{
	{"fig04", "Figure 4", "RPC-like latency of nine RDMA protocols × polling mechanism",
		atb.Fig04(), []string{"protocol", "polling", "size", "avg", "p99"}, withPolling(latRow)},
	{"fig05", "Figure 5", "multi-client throughput of RDMA protocols × polling (under/full/over subscription)",
		atb.Fig05(), []string{"protocol", "polling", "size", "clients", "Kops/s", "MB/s"}, withPolling(tputRow)},
	fig11,
	{"fig12", "Figure 12", "service-level hints: aggregated throughput, 1–512 clients",
		atb.Fig12(), []string{"system", "size", "clients", "Kops/s", "MB/s"}, tputRow},
	{"fig13", "Figure 13", "function-level hints: 50/50 mixed workload, 512B payloads", atb.Fig13(), mixCols, mixRow},
	{"fig14", "Figure 14", "function-level hints: 50/50 mixed workload, 128KB payloads", atb.Fig14(), mixCols, mixRow},
}

// render runs the figure's sweep on tb and returns the file content and
// the points behind it.
func (fig atbFigure) render(tb atb.Testbed) (string, []atb.Point) {
	fig.sweep.Testbed = tb
	pts := measure(fig.sweep)
	t := stats.NewTable(fig.cols...)
	for _, p := range pts {
		t.Row(fig.row(p)...)
	}
	return header(fig.title, fig.caption) + t.String(), pts
}

// measure runs the sweep's points on GOMAXPROCS goroutines and returns
// them in Run's order. Every point builds its own fabric and Env, so the
// simulations share nothing and each is as deterministic as alone — but a
// Testbed.Hook attaches every fabric to one registry and tracer, so a run
// with one measures its points one at a time, in order.
func measure(s atb.Sweep) []atb.Point {
	pts := s.Points()
	workers := runtime.GOMAXPROCS(0)
	if s.Testbed.Hook != nil {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(pts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				pts[i] = s.Measure(pts[i])
			}
		}()
	}
	wg.Wait()
	return pts
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	outDir := fs.String("out", "results", "output directory")
	only := fs.String("only", "", "comma-separated subset (fig04..fig17,derived)")
	metrics := fs.Bool("metrics", false, "write the obs exposition to results/metrics.txt")
	traceFile := fs.String("trace", "", "write a chrome://tracing JSON event trace to FILE")
	faults := fs.Bool("faults", false, "inject faults: 1% per-hop packet loss unless -loss/-jitter override")
	loss := fs.Float64("loss", 0, "per-hop drop probability, e.g. 0.05 (implies -faults)")
	jitter := fs.Int64("jitter", 0, "max per-hop latency jitter in ns (implies -faults)")
	deadline := fs.Int64("deadline", 2_000_000, "per-call deadline floor in ns for fault runs (0 = no deadline: one unbounded attempt, never re-sent)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The registry behind -metrics and -trace, nil without them; the
	// figure closures below read it when they run.
	var reg *obs.Registry
	var fig11Pts []atb.Point
	var fig17Res []tpch.QueryResult
	type figure struct {
		name string
		gen  func(atb.Testbed) string
	}
	var figs []figure
	for _, fig := range atbFigures {
		figs = append(figs, figure{fig.name, func(tb atb.Testbed) string {
			s, pts := fig.render(tb)
			if fig.name == fig11.name {
				fig11Pts = pts
			}
			return s
		}})
	}
	figs = append(figs,
		figure{"fig15", func(atb.Testbed) string { return figYCSB(ycsb.WorkloadA(3000), 15, reg) }},
		figure{"fig16", func(atb.Testbed) string { return figYCSB(ycsb.WorkloadB(3000), 16, reg) }},
		figure{"fig17", func(atb.Testbed) string {
			s, res := fig17()
			fig17Res = res
			return s
		}},
		figure{"derived", func(tb atb.Testbed) string {
			if fig11Pts == nil {
				_, fig11Pts = fig11.render(tb)
			}
			return derived(fig11Pts, fig17Res)
		}})

	want := map[string]bool{}
	if *only != "" {
		var valid []string
		for _, f := range figs {
			valid = append(valid, f.name)
		}
		for _, s := range strings.Split(*only, ",") {
			s = strings.TrimSpace(s)
			if !slices.Contains(valid, s) {
				return fmt.Errorf("-only: unknown figure %q (valid: %s)", s, strings.Join(valid, ","))
			}
			want[s] = true
		}
	}

	var tb atb.Testbed
	if *faults || *loss > 0 || *jitter > 0 {
		p := *loss
		if p == 0 && *jitter == 0 {
			p = 0.01
		}
		tb.Faults = &simnet.FaultConfig{DropProb: p, JitterNs: *jitter}
		tb.DeadlineNs = *deadline
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var tracer *obs.Tracer
	var traceOut *os.File
	if *metrics || *traceFile != "" {
		reg = obs.NewRegistry()
		if *traceFile != "" {
			// Created before the first sweep: an unwritable path fails
			// now, not after every figure has run.
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			traceOut = f
			tracer = obs.NewTracer()
			reg.SetTracer(tracer)
		}
		runIdx := 0
		tb.Hook = func(f *atb.Fabric) {
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

	for _, f := range figs {
		if len(want) > 0 && !want[f.name] {
			continue
		}
		fmt.Printf("generating %s...\n", f.name)
		path := filepath.Join(*outDir, f.name+".txt")
		if err := os.WriteFile(path, []byte(f.gen(tb)), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}

	if *metrics {
		path := filepath.Join(*outDir, "metrics.txt")
		if err := os.WriteFile(path, []byte(reg.Exposition()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	if traceOut != nil {
		if err := tracer.WriteJSON(traceOut); err != nil {
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
		fmt.Printf("  wrote %d trace events to %s\n", tracer.Len(), *traceFile)
	}
	return nil
}

func header(fig, caption string) string {
	return fmt.Sprintf("%s — %s\n(simulated reproduction; shapes comparable, absolute values are the simulator's)\n\n", fig, caption)
}

func figYCSB(w ycsb.Workload, fig int, reg *obs.Registry) string {
	cfg := ycsb.DefaultRunConfig(w)
	cfg.Obs = reg
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
func derived(fig11Pts []atb.Point, fig17Res []tpch.QueryResult) string {
	var b strings.Builder
	b.WriteString("Derived claims (paper §5.2 / §5.5 text)\n\n")
	bySys := map[string]map[int]float64{}
	for _, p := range fig11Pts {
		if bySys[p.Name] == nil {
			bySys[p.Name] = map[int]float64{}
		}
		bySys[p.Name][p.Size] = p.AvgNs
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
