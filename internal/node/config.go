package node

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/simnet"
)

// Typed config failures. Every rejected config names the offending key;
// match with errors.Is (the sentinels) or errors.As (*ConfigError) for
// the key and line.
var (
	// ErrUnknownKey: the config contains a key the node does not know.
	// Strict by design — a typo'd key must fail loudly, not silently
	// fall back to a default.
	ErrUnknownKey = errors.New("node: unknown config key")
	// ErrBadValue: a known key carries a malformed or out-of-range value.
	ErrBadValue = errors.New("node: bad config value")
)

// ConfigError is one rejected config key: the dotted key path, the
// source line (0 when not from a file), and the sentinel class.
type ConfigError struct {
	Key    string
	Line   int
	Err    error
	Detail string
}

func (e *ConfigError) Error() string {
	s := fmt.Sprintf("%v: %s", e.Err, e.Key)
	if e.Line > 0 {
		s += fmt.Sprintf(" (line %d)", e.Line)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

func (e *ConfigError) Unwrap() error { return e.Err }

// Config is the full node configuration, split neo-go-style into an
// application section (what this node runs: metrics sink, workload,
// drain policy) and a protocol section (what every node must agree on:
// topology, durability, transport tuning, hints).
type Config struct {
	Application AppConfig
	Protocol    ProtoConfig
}

// AppConfig is the per-node application section.
type AppConfig struct {
	// Name labels the node in logs and reports.
	Name string
	// MetricsSink selects where the Prometheus-style exposition goes at
	// shutdown: "none" or "stdout".
	MetricsSink string
	// DrainDeadlineNs bounds a graceful drain before it escalates to the
	// crash path. Zero waits forever.
	DrainDeadlineNs int64
	// DrainLingerNs keeps the node alive (fenced) after it has quiesced,
	// so peer monitors observe the typed draining rejections and promote
	// this node's shards away while it can still serve resyncs. Sized to
	// cover the probe intervals a monitor needs to suspect a primary plus
	// a candidacy; zero stops immediately after quiesce (failover then
	// happens post-mortem, as with a hard kill).
	DrainLingerNs int64
	// Workload sizes the built-in soak workload (cmd/hatnode -rolling).
	Workload WorkloadConfig
}

// WorkloadConfig sizes the retry-until-acked soak workload.
type WorkloadConfig struct {
	Workers int
	Writes  int   // per worker
	PaceNs  int64 // inter-write pacing
}

// ProtoConfig is the cluster-wide protocol section.
type ProtoConfig struct {
	Seed     int64
	Servers  int
	Shards   int
	RF       int
	SyncMode lmdb.SyncMode
	// Credits overrides engine.Config.FlowCredits (0 = engine default).
	Credits int
	// AdmitLimit/AdmitPolicy configure server admission control
	// (0 = unlimited).
	AdmitLimit  int
	AdmitPolicy engine.AdmitPolicy
	// Hints is the node-level hint group: polling and numa, the two keys
	// Boot acts on.
	Hints hints.Group
	// Crash is the seeded crash-plan policy for chaos runs (all zero =
	// no crash plan); the run that installs it fills in Nodes.
	Crash simnet.CrashConfig
}

// DefaultConfig returns the runnable defaults: a 5-node RF-3 SyncFull
// cluster and a small soak workload.
func DefaultConfig() *Config {
	return &Config{
		Application: AppConfig{
			Name:            "hatnode",
			MetricsSink:     "none",
			DrainDeadlineNs: 300_000,
			DrainLingerNs:   600_000,
			Workload:        WorkloadConfig{Workers: 3, Writes: 40, PaceNs: 250_000},
		},
		Protocol: ProtoConfig{
			Seed:     1,
			Servers:  5,
			Shards:   8,
			RF:       3,
			SyncMode: lmdb.SyncFull,
			Hints:    hints.Group{},
			Crash:    simnet.CrashConfig{RestartDelayNs: 400_000, RestartJitterNs: 200_000},
		},
	}
}

// ClusterConfig derives the cluster tier's shared config.
func (c *Config) ClusterConfig() cluster.Config {
	cc := cluster.Config{Seed: c.Protocol.Seed, NShards: c.Protocol.Shards, RF: c.Protocol.RF}
	cc.NodeIDs = make([]int, c.Protocol.Servers)
	for i := range cc.NodeIDs {
		cc.NodeIDs[i] = i
	}
	return cc
}

// ParseConfig strictly decodes a YAML node config: unknown keys,
// malformed values, and out-of-range values are rejected with a
// *ConfigError naming the key and line. Absent keys keep their
// DefaultConfig values.
func ParseConfig(src string) (*Config, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	for _, k := range root.keys {
		n := root.child[k]
		switch k {
		case "application":
			if err := decodeApplication(&cfg.Application, n); err != nil {
				return nil, err
			}
		case "protocol":
			if err := decodeProtocol(&cfg.Protocol, n); err != nil {
				return nil, err
			}
		default:
			return nil, &ConfigError{Key: k, Line: n.line, Err: ErrUnknownKey, Detail: "want application|protocol"}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func decodeApplication(a *AppConfig, sec *yamlNode) error {
	if err := wantMap("application", sec); err != nil {
		return err
	}
	for _, k := range sec.keys {
		n := sec.child[k]
		key := "application." + k
		var err error
		switch k {
		case "name":
			a.Name, err = scalarString(key, n)
		case "metrics_sink":
			a.MetricsSink, err = scalarEnum(key, n, "none", "stdout")
		case "drain_deadline":
			a.DrainDeadlineNs, err = scalarDuration(key, n)
		case "drain_linger":
			a.DrainLingerNs, err = scalarDuration(key, n)
		case "workload":
			err = decodeWorkload(&a.Workload, n)
		default:
			return &ConfigError{Key: key, Line: n.line, Err: ErrUnknownKey}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeWorkload(w *WorkloadConfig, sec *yamlNode) error {
	if err := wantMap("application.workload", sec); err != nil {
		return err
	}
	for _, k := range sec.keys {
		n := sec.child[k]
		key := "application.workload." + k
		var err error
		switch k {
		case "workers":
			w.Workers, err = scalarInt(key, n, 1, 1024)
		case "writes":
			w.Writes, err = scalarInt(key, n, 1, 1<<20)
		case "pace":
			w.PaceNs, err = scalarDuration(key, n)
		default:
			return &ConfigError{Key: key, Line: n.line, Err: ErrUnknownKey}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeProtocol(pr *ProtoConfig, sec *yamlNode) error {
	if err := wantMap("protocol", sec); err != nil {
		return err
	}
	for _, k := range sec.keys {
		n := sec.child[k]
		key := "protocol." + k
		var err error
		switch k {
		case "seed":
			var v int
			v, err = scalarInt(key, n, 0, 1<<62-1)
			pr.Seed = int64(v)
		case "servers":
			pr.Servers, err = scalarInt(key, n, 1, 256)
		case "shards":
			pr.Shards, err = scalarInt(key, n, 1, 4096)
		case "rf":
			pr.RF, err = scalarInt(key, n, 1, 16)
		case "sync_mode":
			var v string
			if v, err = scalarEnum(key, n, "full", "meta", "none"); err == nil {
				switch v {
				case "full":
					pr.SyncMode = lmdb.SyncFull
				case "meta":
					pr.SyncMode = lmdb.SyncMeta
				case "none":
					pr.SyncMode = lmdb.NoSync
				}
			}
		case "credits":
			pr.Credits, err = scalarInt(key, n, 0, 1<<20)
		case "admit_limit":
			pr.AdmitLimit, err = scalarInt(key, n, 0, 1<<20)
		case "admit_policy":
			var v string
			if v, err = scalarString(key, n); err == nil {
				if pr.AdmitPolicy, err = engine.ParseAdmitPolicy(v); err != nil {
					err = &ConfigError{Key: key, Line: n.line, Err: ErrBadValue, Detail: err.Error()}
				}
			}
		case "hints":
			pr.Hints, err = decodeHints(key, n)
		case "crash":
			err = decodeCrash(&pr.Crash, n)
		default:
			return &ConfigError{Key: key, Line: n.line, Err: ErrUnknownKey}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeHints(path string, sec *yamlNode) (hints.Group, error) {
	if err := wantMap(path, sec); err != nil {
		return nil, err
	}
	g := hints.Group{}
	for _, k := range sec.keys {
		n := sec.child[k]
		key := path + "." + k
		v, err := scalarString(key, n)
		if err != nil {
			return nil, err
		}
		if hints.Key(k) != hints.KeyPolling && hints.Key(k) != hints.KeyNUMA {
			return nil, &ConfigError{Key: key, Line: n.line, Err: ErrUnknownKey,
				Detail: "a node acts on polling|numa"}
		}
		if err := hints.Validate(hints.Key(k), v); err != nil {
			return nil, &ConfigError{Key: key, Line: n.line, Err: ErrBadValue, Detail: err.Error()}
		}
		g[hints.Key(k)] = v
	}
	return g, nil
}

func decodeCrash(cs *simnet.CrashConfig, sec *yamlNode) error {
	if err := wantMap("protocol.crash", sec); err != nil {
		return err
	}
	for _, k := range sec.keys {
		n := sec.child[k]
		key := "protocol.crash." + k
		var err error
		switch k {
		case "mean_uptime":
			cs.MeanUptimeNs, err = scalarDuration(key, n)
		case "min_uptime":
			cs.MinUptimeNs, err = scalarDuration(key, n)
		case "restart_delay":
			cs.RestartDelayNs, err = scalarDuration(key, n)
		case "restart_jitter":
			cs.RestartJitterNs, err = scalarDuration(key, n)
		case "horizon":
			cs.HorizonNs, err = scalarDuration(key, n)
		default:
			return &ConfigError{Key: key, Line: n.line, Err: ErrUnknownKey}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks cross-field constraints that single-key decoding
// cannot see.
func (c *Config) Validate() error {
	p := &c.Protocol
	if p.RF > p.Servers {
		return &ConfigError{Key: "protocol.rf", Err: ErrBadValue,
			Detail: fmt.Sprintf("replication factor %d exceeds servers %d", p.RF, p.Servers)}
	}
	if p.RF == 2 {
		return &ConfigError{Key: "protocol.rf", Err: ErrBadValue, Detail: cluster.RF2Refusal}
	}
	if p.Crash.MeanUptimeNs > 0 && p.Crash.HorizonNs <= 0 {
		return &ConfigError{Key: "protocol.crash.horizon", Err: ErrBadValue,
			Detail: "a crash plan needs a positive horizon"}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scalar decoding helpers

func wantMap(path string, n *yamlNode) error {
	if n.kind != yMap {
		return &ConfigError{Key: path, Line: n.line, Err: ErrBadValue,
			Detail: fmt.Sprintf("expected a mapping, got a %s", n.kindName())}
	}
	return nil
}

func scalarString(key string, n *yamlNode) (string, error) {
	if n.kind != yScalar {
		return "", &ConfigError{Key: key, Line: n.line, Err: ErrBadValue,
			Detail: fmt.Sprintf("expected a scalar, got a %s", n.kindName())}
	}
	return n.scalar, nil
}

func scalarInt(key string, n *yamlNode, min, max int) (int, error) {
	s, err := scalarString(key, n)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.Atoi(s)
	if perr != nil {
		return 0, &ConfigError{Key: key, Line: n.line, Err: ErrBadValue,
			Detail: fmt.Sprintf("want an integer, got %q", s)}
	}
	if v < min || v > max {
		return 0, &ConfigError{Key: key, Line: n.line, Err: ErrBadValue,
			Detail: fmt.Sprintf("%d out of range [%d, %d]", v, min, max)}
	}
	return v, nil
}

func scalarEnum(key string, n *yamlNode, allowed ...string) (string, error) {
	s, err := scalarString(key, n)
	if err != nil {
		return "", err
	}
	for _, a := range allowed {
		if s == a {
			return s, nil
		}
	}
	return "", &ConfigError{Key: key, Line: n.line, Err: ErrBadValue,
		Detail: fmt.Sprintf("want %s, got %q", strings.Join(allowed, "|"), s)}
}

// scalarDuration parses a duration into virtual nanoseconds: a bare
// integer is ns; ns/us/µs/ms/s suffixes scale (decimals allowed:
// "1.5ms" = 1_500_000).
func scalarDuration(key string, n *yamlNode) (int64, error) {
	s, err := scalarString(key, n)
	if err != nil {
		return 0, err
	}
	v, perr := parseDurationNs(s)
	if perr != nil {
		return 0, &ConfigError{Key: key, Line: n.line, Err: ErrBadValue, Detail: perr.Error()}
	}
	return v, nil
}

func parseDurationNs(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "ns"):
		t = strings.TrimSuffix(t, "ns")
	case strings.HasSuffix(t, "us"):
		t, mult = strings.TrimSuffix(t, "us"), 1_000
	case strings.HasSuffix(t, "µs"):
		t, mult = strings.TrimSuffix(t, "µs"), 1_000
	case strings.HasSuffix(t, "ms"):
		t, mult = strings.TrimSuffix(t, "ms"), 1_000_000
	case strings.HasSuffix(t, "s"):
		t, mult = strings.TrimSuffix(t, "s"), 1_000_000_000
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("want a duration like 250us or 1.5ms, got %q", s)
	}
	if f < 0 {
		return 0, fmt.Errorf("duration must be non-negative, got %q", s)
	}
	return int64(f * float64(mult)), nil
}
