// KV store example: HatKV (the paper's §4.4 co-design) under a small
// YCSB-style load, comparing the hint-driven HatRPC-Function configuration
// against the emulated RFP comparator.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"

	"hatrpc/internal/stats"
	"hatrpc/internal/ycsb"
)

func main() {
	w := ycsb.WorkloadA(2000)
	cfg := ycsb.RunConfig{
		Workload: w,
		Systems:  []ycsb.SystemKind{ycsb.SysHatFunction, ycsb.SysHatService, ycsb.SysRFP},
		Clients:  32,
		Nodes:    5,
		Seed:     42,
	}
	fmt.Printf("YCSB workload %s: %d records, %d clients, zipfian θ=%.2f\n\n",
		w.Name, w.Records, cfg.Clients, w.Theta)

	results := ycsb.Run(cfg)
	tb := stats.NewTable("system", "total ops/s", "Get µs", "Put µs", "MGet µs", "MPut µs")
	for _, r := range results {
		tb.Row(r.System.String(),
			fmt.Sprintf("%.0f", r.TotalOps),
			us(r.PerOp[ycsb.OpGet].AvgLatNs),
			us(r.PerOp[ycsb.OpPut].AvgLatNs),
			us(r.PerOp[ycsb.OpMultiGet].AvgLatNs),
			us(r.PerOp[ycsb.OpMultiPut].AvgLatNs),
		)
	}
	fmt.Println(tb)

	hat := results[0].TotalOps
	rfp := results[2].TotalOps
	fmt.Printf("HatRPC-Function vs RFP: %.2fx aggregate throughput\n", hat/rfp)
}

func us(ns float64) string { return fmt.Sprintf("%.1f", ns/1000) }
