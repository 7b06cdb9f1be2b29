// Command atb runs the Apache Thrift Benchmarks on the simulated
// cluster: the raw-protocol studies behind Figures 4–5 and the
// hint-driven studies behind Figures 11–14.
//
// Usage:
//
//	atb -bench latency-protocols|throughput-protocols|latency-hints|throughput-hints|mix [-size N]
//	    [-metrics] [-trace FILE] [-faults] [-loss P] [-jitter NS] [-deadline NS]
//	atb -bench crash [-sync full|meta|none] [-uptimes NS,NS,...] [-crash-horizon NS]
//	atb -bench cluster [-rf N,N,...] [-sync full|meta|none] [-uptimes NS,NS,...] [-crash-horizon NS]
//	atb -bench fanin [-vclients N,N,...] [-pools N,N,...] [-workers N] [-tenant-limit N]
//	atb -bench rolling [-drain-deadlines NS,NS,...] [-staggers NS,NS,...] [-rounds N]
//
// -bench fanin sweeps the connection-virtualization tier (DESIGN.md
// §14): goodput and small-call p99 versus connected virtual-client
// count (default 10k → 1M) across shared-QP pool sizes, run unhinted
// and hinted. The unhinted rows show shared-QP head-of-line blocking
// (bulk calls monopolize the FIFO borrow queue); the hinted rows show
// the concurrency hint re-sizing the pool and the priority hint letting
// small calls overtake bulk ones.
//
// -bench crash sweeps the chaos soak harness (DESIGN.md §12) over mean
// server uptimes: each point crashes and reboots the HatKV server on a
// seeded schedule while sessions reconnect and replay, and reports
// acked-write goodput, loss, and the crash→first-ack recovery-time
// distribution. -sync selects the store's durability mode.
//
// -bench cluster sweeps the sharded, replicated HatKV tier (DESIGN.md
// §15) over replication factor × crash rate: each point runs a 5-node
// cluster under seeded primary kills and split-brain partitions, and
// reports put-attempt availability, acked goodput, epoch-fenced
// promotions, the zero-loss audit, and failover recovery times. The
// same seed drives every point, so the crash schedule is held constant
// while RF varies.
//
// -bench rolling sweeps the node-lifecycle tier (DESIGN.md §17) over
// graceful-drain deadline × restart stagger: each point rolls a 5-node
// cluster one restart at a time (drain → stop → reboot → rejoin →
// resync) under a retry-until-acked workload and reports availability,
// the error-visible window (summed put-latency excess during restart
// cycles), and post-stop recovery times. One hard-kill baseline row per
// stagger shows what the graceful drain must beat.
//
// -metrics prints the obs counter/histogram/gauge tables accumulated
// across every simulation of the sweep; -trace writes a deterministic
// chrome://tracing JSON file (open in chrome://tracing or
// ui.perfetto.dev). Both observe the same virtual-time run: two
// invocations with identical arguments emit byte-identical output.
//
// -faults enables fault injection with 1% per-hop packet loss; -loss
// and -jitter set an explicit drop probability / latency jitter bound
// (either implies -faults). Fault runs automatically arm the engine's
// deadline/retry layer (-deadline, default 2 ms) so every call
// completes via retransmission. Identical arguments still emit
// byte-identical output — faults draw from the same seeded RNG.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hatrpc/internal/atb"
	"hatrpc/internal/engine"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
)

func main() {
	bench := flag.String("bench", "latency-hints", "benchmark: latency-protocols, throughput-protocols, latency-hints, throughput-hints, mix, overload, crash, cluster, fanin")
	size := flag.Int("size", 512, "payload size for the mix benchmark")
	vclients := flag.String("vclients", "", "fanin bench: comma-separated connected virtual-client counts (default 10000,100000,1000000)")
	pools := flag.String("pools", "", "fanin bench: comma-separated physical shared-QP pool sizes (default 4,16)")
	workers := flag.Int("workers", 0, "fanin bench: concurrent borrower procs (default 64)")
	tenantLimit := flag.Int("tenant-limit", 0, "fanin bench: server-side per-tenant concurrent-handler cap (0 = off)")
	offeredLoad := flag.String("offered-load", "", "overload bench: comma-separated offered loads in Kops/s (default 70,140,210,280)")
	admitLimit := flag.Int("admit-limit", 28, "overload bench: max concurrent handlers before the admission policy kicks in")
	shedPolicy := flag.String("shed-policy", "newest", "overload bench: admission policy: block, newest, oldest")
	credits := flag.Bool("credits", true, "overload bench: enable receiver-driven credit flow control (false sweeps the RNR-NAK control)")
	metrics := flag.Bool("metrics", false, "print obs counter/histogram/gauge tables after the run")
	traceFile := flag.String("trace", "", "write a chrome://tracing JSON event trace to FILE")
	faults := flag.Bool("faults", false, "inject faults: 1% per-hop packet loss unless -loss/-jitter override")
	loss := flag.Float64("loss", 0, "per-hop drop probability, e.g. 0.05 (implies -faults)")
	jitter := flag.Int64("jitter", 0, "max per-hop latency jitter in ns (implies -faults)")
	deadline := flag.Int64("deadline", 2_000_000, "per-call deadline in ns for fault runs (0 = no deadline: one unbounded attempt, never re-sent)")
	syncMode := flag.String("sync", "full", "crash/cluster bench: store durability mode: full, meta, none")
	uptimes := flag.String("uptimes", "", "crash/cluster bench: comma-separated mean uptimes in ns")
	crashHorizon := flag.Int64("crash-horizon", 0, "crash/cluster bench: schedule horizon in ns")
	rfs := flag.String("rf", "", "cluster bench: comma-separated replication factors (default 1,2,3)")
	drainDeadlines := flag.String("drain-deadlines", "", "rolling bench: comma-separated graceful drain deadlines in ns (default 150000,600000)")
	staggers := flag.String("staggers", "", "rolling bench: comma-separated restart staggers in ns (default 800000,1600000)")
	rounds := flag.Int("rounds", 0, "rolling bench: rolling rounds over all nodes (default 1)")
	flag.Parse()

	if *faults || *loss > 0 || *jitter > 0 {
		p := *loss
		if p == 0 && *jitter == 0 {
			p = 0.01
		}
		atb.FaultSpec = &simnet.FaultConfig{DropProb: p, JitterNs: *jitter}
		atb.CallDeadlineNs = *deadline
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
			// Separate each simulation's node timelines in the trace.
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

	switch *bench {
	case "latency-protocols":
		pts := atb.RunProtoLatency(atb.DefaultProtoLatencyConfig())
		tb := stats.NewTable("protocol", "polling", "size", "avg", "p99")
		for _, p := range pts {
			tb.Row(p.Proto.String(), poll(p.Busy), stats.FormatBytes(p.Size),
				stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns))
		}
		fmt.Print(tb)
	case "throughput-protocols":
		pts := atb.RunProtoThroughput(atb.DefaultProtoThroughputConfig())
		tb := stats.NewTable("protocol", "polling", "size", "clients", "Kops/s", "MB/s")
		for _, p := range pts {
			tb.Row(p.Proto.String(), poll(p.Busy), stats.FormatBytes(p.Size), p.Clients,
				fmt.Sprintf("%.1f", p.OpsPerS/1000), fmt.Sprintf("%.1f", p.MBps))
		}
		fmt.Print(tb)
	case "latency-hints":
		pts := atb.RunHintLatency(atb.DefaultHintLatencyConfig())
		tb := stats.NewTable("system", "size", "avg", "p99")
		for _, p := range pts {
			tb.Row(p.System, stats.FormatBytes(p.Size), stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns))
		}
		fmt.Print(tb)
	case "throughput-hints":
		pts := atb.RunHintThroughput(atb.DefaultHintThroughputConfig())
		tb := stats.NewTable("system", "size", "clients", "Kops/s", "MB/s")
		for _, p := range pts {
			tb.Row(p.System, stats.FormatBytes(p.Size), p.Clients,
				fmt.Sprintf("%.1f", p.OpsPerS/1000), fmt.Sprintf("%.1f", p.MBps))
		}
		fmt.Print(tb)
	case "mix":
		cfg := atb.DefaultMixConfig512()
		if *size == 131072 {
			cfg = atb.DefaultMixConfig128K()
		}
		pts := atb.RunMix(cfg)
		tb := stats.NewTable("system", "clients", "lat-call avg", "tput-call Kops/s")
		for _, p := range pts {
			tb.Row(p.System, p.Clients, stats.FormatNs(p.LatAvgNs), fmt.Sprintf("%.1f", p.TputOpsS/1000))
		}
		fmt.Print(tb)
	case "overload":
		cfg := atb.DefaultOverloadConfig()
		cfg.AdmitLimit = *admitLimit
		cfg.Credits = *credits
		pol, err := engine.ParseAdmitPolicy(*shedPolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atb: %v\n", err)
			os.Exit(2)
		}
		cfg.ShedPolicy = pol
		if *offeredLoad != "" {
			cfg.OfferedOps = nil
			for _, s := range strings.Split(*offeredLoad, ",") {
				kops, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "atb: bad -offered-load %q: %v\n", s, err)
					os.Exit(2)
				}
				cfg.OfferedOps = append(cfg.OfferedOps, int64(kops*1000))
			}
		}
		pts := atb.RunOverload(cfg)
		tb := stats.NewTable("offered Kops", "goodput Kops", "shed/s", "deadline/s", "avg", "p99",
			"rnr-naks", "rnr-fail", "stalls")
		for _, p := range pts {
			tb.Row(fmt.Sprintf("%.0f", float64(p.Offered)/1000),
				fmt.Sprintf("%.1f", p.GoodputOps/1000),
				fmt.Sprintf("%.0f", p.ShedOps),
				fmt.Sprintf("%.0f", p.DeadlineOps+p.BreakerOps),
				stats.FormatNs(p.AvgNs), stats.FormatNs(p.P99Ns),
				p.RnrNaks, p.RnrFailures, p.CreditStalls)
		}
		fmt.Print(tb)
	case "fanin":
		cfg := atb.DefaultFaninConfig()
		if *vclients != "" {
			cfg.VClients = nil
			for _, s := range strings.Split(*vclients, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "atb: bad -vclients %q: %v\n", s, err)
					os.Exit(2)
				}
				cfg.VClients = append(cfg.VClients, n)
			}
		}
		if *pools != "" {
			cfg.Pools = nil
			for _, s := range strings.Split(*pools, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "atb: bad -pools %q: %v\n", s, err)
					os.Exit(2)
				}
				cfg.Pools = append(cfg.Pools, n)
			}
		}
		if *workers > 0 {
			cfg.Workers = *workers
		}
		cfg.TenantLimit = *tenantLimit
		fmt.Print(atb.FaninTable(atb.RunFanin(cfg)))
	case "crash":
		cfg := atb.DefaultCrashBenchConfig()
		cfg.Sync = parseSync(*syncMode)
		if *crashHorizon > 0 {
			cfg.HorizonNs = *crashHorizon
		}
		if *uptimes != "" {
			cfg.MeanUptimes = parseUptimes(*uptimes)
		}
		pts := atb.RunCrash(cfg)
		tb := stats.NewTable("mean-uptime", "crashes", "acked", "lost", "goodput Kops/s",
			"recov avg", "recov p99", "replays", "reconnects")
		for _, p := range pts {
			tb.Row(stats.FormatNs(float64(p.MeanUptimeNs)), p.Crashes, p.Acked, p.Lost,
				fmt.Sprintf("%.1f", p.GoodputOps/1000),
				stats.FormatNs(p.RecovAvgNs), stats.FormatNs(p.RecovP99Ns),
				p.Replays, p.Connects)
		}
		fmt.Print(tb)
	case "cluster":
		cfg := atb.DefaultClusterBenchConfig()
		cfg.Sync = parseSync(*syncMode)
		if *crashHorizon > 0 {
			cfg.HorizonNs = *crashHorizon
		}
		if *uptimes != "" {
			cfg.MeanUptimes = parseUptimes(*uptimes)
		}
		if *rfs != "" {
			cfg.RFs = nil
			for _, s := range strings.Split(*rfs, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "atb: bad -rf %q: %v\n", s, err)
					os.Exit(2)
				}
				cfg.RFs = append(cfg.RFs, n)
			}
		}
		pts := atb.RunClusterBench(cfg)
		tb := stats.NewTable("rf", "mean-uptime", "crashes", "acked", "lost", "avail",
			"goodput Kops/s", "promotions", "stale-retries", "recov avg", "recov p99")
		for _, p := range pts {
			tb.Row(p.RF, stats.FormatNs(float64(p.MeanUptimeNs)), p.Crashes, p.Acked, p.Lost,
				fmt.Sprintf("%.3f", p.Availability),
				fmt.Sprintf("%.1f", p.GoodputOps/1000),
				p.Promotions, p.StaleRetries,
				stats.FormatNs(p.RecovAvgNs), stats.FormatNs(p.RecovP99Ns))
		}
		fmt.Print(tb)
	case "rolling":
		cfg := atb.DefaultRollingBenchConfig()
		if *drainDeadlines != "" {
			cfg.DrainDeadlines = parseNsList("-drain-deadlines", *drainDeadlines)
		}
		if *staggers != "" {
			cfg.Staggers = parseNsList("-staggers", *staggers)
		}
		if *rounds > 0 {
			cfg.Rounds = *rounds
		}
		pts := atb.RunRollingBench(cfg)
		tb := stats.NewTable("mode", "drain-deadline", "stagger", "acked", "lost", "avail",
			"escalations", "fenced", "promotions", "err-window", "recov avg", "recov max", "ready avg")
		for _, p := range pts {
			mode, dl := "hard-kill", "-"
			if p.Graceful {
				mode = "graceful"
				dl = stats.FormatNs(float64(p.DrainDeadlineNs))
			}
			tb.Row(mode, dl, stats.FormatNs(float64(p.StaggerNs)), p.Acked, p.Lost,
				fmt.Sprintf("%.3f", p.Availability),
				p.Escalations, p.DrainedReqs, p.Promotions,
				stats.FormatNs(float64(p.ErrWindowNs)),
				stats.FormatNs(p.RecovAvgNs), stats.FormatNs(float64(p.RecovMaxNs)),
				stats.FormatNs(p.ReadyAvgNs))
		}
		fmt.Print(tb)
	default:
		fmt.Fprintf(os.Stderr, "atb: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}

	if *metrics {
		fmt.Println()
		fmt.Print(reg.Render())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atb: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "atb: write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "atb: close trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "atb: wrote %d trace events to %s\n", tracer.Len(), *traceFile)
	}
}

// parseSync maps the -sync flag to a store durability mode, exiting on
// an unknown value.
func parseSync(s string) lmdb.SyncMode {
	switch s {
	case "full":
		return lmdb.SyncFull
	case "meta":
		return lmdb.SyncMeta
	case "none":
		return lmdb.NoSync
	}
	fmt.Fprintf(os.Stderr, "atb: bad -sync %q (want full, meta or none)\n", s)
	os.Exit(2)
	return lmdb.SyncFull
}

// parseUptimes parses the -uptimes flag's comma-separated ns list,
// exiting on a malformed entry.
func parseUptimes(arg string) []int64 {
	var out []int64
	for _, s := range strings.Split(arg, ",") {
		ns, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || ns <= 0 {
			fmt.Fprintf(os.Stderr, "atb: bad -uptimes %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, ns)
	}
	return out
}

// parseNsList parses a comma-separated positive-ns list for the named
// flag, exiting on a malformed entry.
func parseNsList(flagName, arg string) []int64 {
	var out []int64
	for _, s := range strings.Split(arg, ",") {
		ns, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || ns <= 0 {
			fmt.Fprintf(os.Stderr, "atb: bad %s %q: %v\n", flagName, s, err)
			os.Exit(2)
		}
		out = append(out, ns)
	}
	return out
}

func poll(busy bool) string {
	if busy {
		return "busy"
	}
	return "event"
}
