// Command hatnode boots a YAML-configured HatKV cluster node fleet in
// the deterministic simulation and soaks it (DESIGN.md §17). The config
// splits neo-go-style into an application section (per-node: metrics
// sink, drain policy, workload sizing) and a protocol section
// (cluster-wide: topology, durability, transport tuning, hints).
//
// Usage:
//
//	hatnode [-config FILE] [-validate]
//	hatnode [-config FILE] [-rolling] [-rounds N] [-graceful=false] [-metrics]
//
// Without -rolling the fleet runs the configured retry-until-acked
// workload to completion (a plain soak). With -rolling an operator
// process additionally restarts every node in turn — graceful drain →
// stop → reboot → rejoin → resync by default, or a hard kill with
// -graceful=false — and the report adds per-cycle restart economics:
// back-to-ready time, post-stop recovery, and the error-visible window.
//
// -validate parses and validates the config, prints a one-line summary,
// and exits without running: the CI gate for the examples/ configs.
// Strict decoding means an unknown or malformed key names itself and
// its line. -metrics prints the Prometheus text exposition at exit even
// when the config's metrics_sink says "none".
//
// Identical flags and config produce byte-identical output — the run is
// seeded virtual time end to end.
package main

import (
	"flag"
	"fmt"
	"os"

	"hatrpc/internal/chaos"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
)

func main() {
	cfgPath := flag.String("config", "", "YAML node config file (absent keys keep built-in defaults)")
	validate := flag.Bool("validate", false, "parse and validate the config, then exit")
	rolling := flag.Bool("rolling", false, "restart every node in turn during the soak")
	rounds := flag.Int("rounds", 1, "full rolling passes over all nodes (with -rolling)")
	graceful := flag.Bool("graceful", true, "drain nodes before stopping; false hard-kills (with -rolling)")
	metrics := flag.Bool("metrics", false, "print the Prometheus exposition at exit regardless of metrics_sink")
	flag.Parse()

	cfg := node.DefaultConfig()
	src := "built-in defaults"
	if *cfgPath != "" {
		raw, err := os.ReadFile(*cfgPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hatnode: %v\n", err)
			os.Exit(1)
		}
		cfg, err = node.ParseConfig(string(raw))
		if err != nil {
			fmt.Fprintf(os.Stderr, "hatnode: %s: %v\n", *cfgPath, err)
			os.Exit(1)
		}
		src = *cfgPath
	}
	if *validate {
		fmt.Printf("hatnode: %s: OK — %q, %d servers, %d shards, rf %d, drain deadline %dns, linger %dns\n",
			src, cfg.Application.Name, cfg.Protocol.Servers, cfg.Protocol.Shards,
			cfg.Protocol.RF, cfg.Application.DrainDeadlineNs, cfg.Application.DrainLingerNs)
		return
	}

	reg := obs.NewRegistry()
	rc := chaos.RollingConfig{Node: cfg, Graceful: *graceful, Reg: reg}
	if *rolling {
		rc.Rounds = *rounds
	}
	res, err := chaos.RollingSoak(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hatnode: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Report())
	if *metrics || cfg.Application.MetricsSink == "stdout" {
		fmt.Print(reg.Exposition())
	}
}
