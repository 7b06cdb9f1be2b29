package main

// metricDef names one metric. These names are the ledger later changes
// claim gains by: do not rename them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists the metrics a user of the system sees, reported for
// every workload by the timed pass. A bound is the share of the parent's
// median by which the metric may worsen before a change is a regression.
// The driver draws a fresh seed for every run, so even the sim_* bounds
// have to cover seed-to-seed variation of the generated inputs (measured
// spreads are in README.md; each bound is at least three times the widest).
// Two runs of one seed agree on every sim_* value and ok_share exactly.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_goodput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.02},
	{Name: "sim_goodput_mb_s", Unit: "MB/s", Better: "higher", Bound: 0.03},
	{Name: "sim_lat_p50_ns", Unit: "sim_ns", Better: "lower", Bound: 0.05},
	{Name: "sim_lat_p99_ns", Unit: "sim_ns", Better: "lower", Bound: 0.20},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.04},
	{Name: "host_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.04},
	{Name: "host_alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05},
}

// perLayer lists the traced pass's metrics, layer = package name. The
// first block is harness-level bookkeeping every workload reports; then
// one block per layer, bottom of the stack first.
var perLayer = []metricDef{
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
	{Name: "ops_attempted", Unit: "count", Better: "higher"},
	{Name: "ops_failed", Unit: "count", Better: "lower"},
	{Name: "lat_samples", Unit: "count", Better: "higher"},
	{Name: "gomaxprocs", Unit: "count", Better: "higher"},

	{Name: "sim.switch_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.spawn_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.compute_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.single_p_ratio", Unit: "ratio", Better: "lower"},

	{Name: "simnet.msg_host_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.oob_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "simnet.wire_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "simnet.wire_sim_ns.128k", Unit: "sim_ns", Better: "lower"},

	{Name: "verbs.post_poll_host_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.self_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "verbs.self_sim_ns.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "verbs.wr_per_op", Unit: "count", Better: "lower"},
	{Name: "verbs.cqe_per_op", Unit: "count", Better: "lower"},
	{Name: "verbs.inline_share", Unit: "ratio", Better: "higher"},
	{Name: "verbs.rnr_naks", Unit: "count", Better: "lower"},

	{Name: "engine.self_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.self_sim_ns.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.eager.512", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.eager.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.direct_write_imm.512", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.direct_write_imm.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.write_rndv.512", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.write_rndv.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.rfp.512", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_sim_ns.rfp.128k", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.call_host_ns.512", Unit: "ns", Better: "lower"},
	{Name: "engine.call_host_ns.128k", Unit: "ns", Better: "lower"},
	{Name: "engine.call_allocs.512", Unit: "allocs/op", Better: "lower"},
	{Name: "engine.queue_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "engine.proto_share.eager", Unit: "ratio", Better: "higher"},
	{Name: "engine.proto_share.direct_write_imm", Unit: "ratio", Better: "higher"},
	{Name: "engine.proto_share.write_rndv", Unit: "ratio", Better: "higher"},
	{Name: "engine.proto_share.rfp", Unit: "ratio", Better: "higher"},
	{Name: "engine.proto_share.other", Unit: "ratio", Better: "lower"},
	{Name: "engine.eager_frags_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.rndv_pool_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "engine.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.credit_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.gen_lag_p99_ns", Unit: "sim_ns", Better: "lower"},

	{Name: "hints.resolve_host_ns", Unit: "ns", Better: "lower"},
	{Name: "trdma.plan_host_ns", Unit: "ns", Better: "lower"},
	{Name: "trdma.self_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "trdma.self_host_ns.512", Unit: "ns", Better: "lower"},

	{Name: "thrift.enc_host_ns.binary", Unit: "ns", Better: "lower"},
	{Name: "thrift.enc_host_ns.compact", Unit: "ns", Better: "lower"},
	{Name: "thrift.dec_host_ns.binary", Unit: "ns", Better: "lower"},
	{Name: "thrift.dec_host_ns.compact", Unit: "ns", Better: "lower"},
	{Name: "thrift.enc_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "thrift.dec_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "thrift.wire_bytes", Unit: "B", Better: "lower"},

	{Name: "lmdb.get_host_ns", Unit: "ns", Better: "lower"},
	{Name: "lmdb.put_commit_host_ns", Unit: "ns", Better: "lower"},
	{Name: "lmdb.put_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "lmdb.synced_commit_share", Unit: "ratio", Better: "lower"},

	{Name: "hatkv.get_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.put_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.get.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.get.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.put.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.put.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.mget.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.mget.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.mput.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.mput.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "hatkv.handler_share", Unit: "ratio", Better: "lower"},

	{Name: "cluster.put_small.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.put_small.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.put_large.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.put_large.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.get.sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.get.sim_p99_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.repl_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.rpc_self_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "cluster.promotions", Unit: "count", Better: "lower"},
	{Name: "cluster.stale_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.refreshes", Unit: "count", Better: "lower"},
	{Name: "cluster.shardmap_codec_host_ns", Unit: "ns", Better: "lower"},

	{Name: "ipoib.echo_sim_ns.512", Unit: "sim_ns", Better: "lower"},
	{Name: "node.boot_ready_sim_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "node.exposition_host_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "span.client_sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "span.handler_sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "span.handler_self_sim_p50_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "span.store_sim_p50_ns", Unit: "sim_ns", Better: "lower"},
}

// manifest is BENCHMARK.json, generated from the tables above so the file
// and the code cannot drift (bench -manifest prints it; the test compares).
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // Bound is 0 and omitted
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 8

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	return m
}
