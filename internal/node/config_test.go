package node

import (
	"errors"
	"strings"
	"testing"

	"hatrpc/internal/lmdb"
)

const goodConfig = `
# A full node config exercising every section.
application:
  name: test-node
  metrics_sink: stdout
  drain_deadline: 300us
  drain_linger: 450us
  workload:
    workers: 2
    writes: 10
    pace: 250us

protocol:
  seed: 42
  servers: 5
  shards: 8
  rf: 3
  sync_mode: full
  credits: 16
  admit_limit: 8
  admit_policy: shed-newest
  hints:
    polling: busy
    numa: bind
  crash:
    mean_uptime: 2ms
    min_uptime: 200us
    restart_delay: 400us
    restart_jitter: 200us
    horizon: 8ms
`

func TestParseConfigGood(t *testing.T) {
	cfg, err := ParseConfig(goodConfig)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	a, p := cfg.Application, cfg.Protocol
	if a.Name != "test-node" || a.MetricsSink != "stdout" {
		t.Errorf("application = %+v", a)
	}
	if a.DrainDeadlineNs != 300_000 {
		t.Errorf("drain_deadline = %d, want 300000", a.DrainDeadlineNs)
	}
	if a.DrainLingerNs != 450_000 {
		t.Errorf("drain_linger = %d, want 450000", a.DrainLingerNs)
	}
	if a.Workload.Workers != 2 || a.Workload.Writes != 10 || a.Workload.PaceNs != 250_000 {
		t.Errorf("workload = %+v", a.Workload)
	}
	if p.Seed != 42 || p.Servers != 5 || p.Shards != 8 || p.RF != 3 {
		t.Errorf("topology = %+v", p)
	}
	if p.SyncMode != lmdb.SyncFull || p.Credits != 16 || p.AdmitLimit != 8 {
		t.Errorf("tuning = %+v", p)
	}
	if p.Hints["polling"] != "busy" || p.Hints["numa"] != "bind" || len(p.Hints) != 2 {
		t.Errorf("hints = %v", p.Hints)
	}
	if p.Crash.MeanUptimeNs != 2_000_000 || p.Crash.HorizonNs != 8_000_000 {
		t.Errorf("crash = %+v", p.Crash)
	}
}

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig("protocol:\n  seed: 7\n")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	def := DefaultConfig()
	if cfg.Protocol.Seed != 7 {
		t.Errorf("seed = %d", cfg.Protocol.Seed)
	}
	if cfg.Protocol.Servers != def.Protocol.Servers || cfg.Application.Name != def.Application.Name {
		t.Errorf("absent keys must keep defaults: %+v", cfg)
	}
}

// TestParseConfigRejects pins the strict-decode contract: every
// malformed config fails with the right sentinel AND names the
// offending key.
func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		sentinel error
		key      string
	}{
		{"unknown top-level", "nodes:\n  x: 1\n", ErrUnknownKey, "nodes"},
		{"unknown app key", "application:\n  nmae: x\n", ErrUnknownKey, "application.nmae"},
		{"unknown proto key", "protocol:\n  shardz: 4\n", ErrUnknownKey, "protocol.shardz"},
		{"unknown workload key", "application:\n  workload:\n    speed: 4\n", ErrUnknownKey, "application.workload.speed"},
		{"unknown crash key", "protocol:\n  crash:\n    uptime: 4ms\n", ErrUnknownKey, "protocol.crash.uptime"},
		{"unknown hint", "protocol:\n  hints:\n    pollling: busy\n", ErrUnknownKey, "protocol.hints.pollling"},
		{"bad hint value", "protocol:\n  hints:\n    polling: sometimes\n", ErrBadValue, "protocol.hints.polling"},
		{"bad int", "protocol:\n  servers: many\n", ErrBadValue, "protocol.servers"},
		{"zero servers", "protocol:\n  servers: 0\n", ErrBadValue, "protocol.servers"},
		{"huge rf", "protocol:\n  rf: 99\n", ErrBadValue, "protocol.rf"},
		{"rf over servers", "protocol:\n  servers: 2\n  rf: 3\n", ErrBadValue, "protocol.rf"},
		{"rf 2 never promotes", "protocol:\n  rf: 2\n", ErrBadValue, "protocol.rf"},
		{"bad sync mode", "protocol:\n  sync_mode: psync\n", ErrBadValue, "protocol.sync_mode"},
		{"bad sink", "application:\n  metrics_sink: statsd\n", ErrBadValue, "application.metrics_sink"},
		{"bad duration", "application:\n  drain_deadline: soon\n", ErrBadValue, "application.drain_deadline"},
		{"negative duration", "application:\n  drain_deadline: -5us\n", ErrBadValue, "application.drain_deadline"},
		{"bad admit policy", "protocol:\n  admit_policy: fifo\n", ErrBadValue, "protocol.admit_policy"},
		{"scalar for section", "protocol: full\n", ErrBadValue, "protocol"},
		{"list for scalar", "protocol:\n  servers: [1, 2]\n", ErrBadValue, "protocol.servers"},
		{"crash without horizon", "protocol:\n  crash:\n    mean_uptime: 2ms\n", ErrBadValue, "protocol.crash.horizon"},
		// Keys that existed until PR 24: strict decoding refuses a config
		// written for the operator tier that was removed.
		{"removed ops key", "application:\n  ops: true\n", ErrUnknownKey, "application.ops"},
		{"empty listeners", "protocol:\n  listeners: []\n", ErrUnknownKey, "protocol.listeners"},
		{"wrong first listener", "protocol:\n  listeners: [other]\n", ErrUnknownKey, "protocol.listeners"},
		{"removed shed-oldest", "protocol:\n  admit_policy: oldest\n", ErrBadValue, "protocol.admit_policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.src)
			if err == nil {
				t.Fatalf("ParseConfig(%q) succeeded, want %v", tc.src, tc.sentinel)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want sentinel %v", err, tc.sentinel)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T, want *ConfigError", err)
			}
			if ce.Key != tc.key {
				t.Errorf("error names key %q, want %q", ce.Key, tc.key)
			}
		})
	}
}

// TestParseConfigHintKeys: a node's hint group takes only the two keys
// Boot acts on. Every other hint key (valid in a .hrpc file, ignored by a
// node) and polling=adaptive (not a polling value) are refused with the
// key and its line.
func TestParseConfigHintKeys(t *testing.T) {
	cases := []struct {
		hint     string
		sentinel error
		key      string
	}{
		{"perf_goal: latency", ErrUnknownKey, "protocol.hints.perf_goal"},
		{"concurrency: 24", ErrUnknownKey, "protocol.hints.concurrency"},
		{"payload_size: 512", ErrUnknownKey, "protocol.hints.payload_size"},
		{"transport: rdma", ErrUnknownKey, "protocol.hints.transport"},
		{"priority: high", ErrUnknownKey, "protocol.hints.priority"},
		{"polling: adaptive", ErrBadValue, "protocol.hints.polling"},
	}
	for _, tc := range cases {
		src := "protocol:\n  seed: 3\n  hints:\n    numa: bind\n    " + tc.hint + "\n"
		_, err := ParseConfig(src)
		var ce *ConfigError
		if !errors.Is(err, tc.sentinel) || !errors.As(err, &ce) || ce.Key != tc.key || ce.Line != 5 {
			t.Errorf("hint %q: error %v, want %v naming %s at line 5", tc.hint, err, tc.sentinel, tc.key)
		}
	}
	for _, v := range []string{"auto", "busy", "event"} {
		if _, err := ParseConfig("protocol:\n  hints:\n    polling: " + v + "\n"); err != nil {
			t.Errorf("polling: %s: %v", v, err)
		}
	}
}

// TestValidateRejectsRF2: a two-replica shard needs both replicas to form
// the majority a promotion takes, so it can never fail over; the config is
// refused with the reason rather than booted into a cluster that goes
// silently unavailable at its first replica loss. RF 1 (no failover
// promised) and RF 3 stay valid.
func TestValidateRejectsRF2(t *testing.T) {
	for rf, ok := range map[int]bool{1: true, 2: false, 3: true} {
		c := DefaultConfig()
		c.Protocol.RF = rf
		err := c.Validate()
		if ok {
			if err != nil {
				t.Errorf("rf %d: %v", rf, err)
			}
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Key != "protocol.rf" || !errors.Is(err, ErrBadValue) {
			t.Fatalf("rf %d: error %v, want a bad-value *ConfigError on protocol.rf", rf, err)
		}
		for _, want := range []string{"quorum", "fail over"} {
			if !strings.Contains(ce.Detail, want) {
				t.Errorf("rf %d: detail %q does not say why (no %q)", rf, ce.Detail, want)
			}
		}
	}
}

// TestParseConfigYAMLErrors: structurally broken YAML fails with a line
// number, not a panic or silent acceptance.
func TestParseConfigYAMLErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"tabs", "protocol:\n\tseed: 1\n", "tabs"},
		{"duplicate key", "protocol:\n  seed: 1\n  seed: 2\n", "duplicate"},
		{"bad indent", "protocol:\n  seed: 1\n   shards: 2\n", "indentation"},
		{"bare word", "protocol:\n  justaword\n", "expected"},
		{"list under map entries", "protocol:\n  seed: 1\n  - x\n", "list item"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestParseDurations(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0}, {"600", 600}, {"600ns", 600}, {"250us", 250_000},
		{"250µs", 250_000}, {"1.5ms", 1_500_000}, {"2s", 2_000_000_000},
	}
	for _, tc := range cases {
		got, err := parseDurationNs(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseDurationNs(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}
