// Package hints implements HatRPC's hierarchical hint scheme (§4.1).
//
// Hints partition two ways. Vertically, service-level hints set defaults
// for every function in the service and function-level hints override
// them per key, only for that function. Laterally, each level carries
// three groups: shared hints ("hint:"), server-side hints ("s_hint:") and
// client-side hints ("c_hint:"); a side-specific hint overrides the
// shared one for that side.
//
// Resolution order for one (function, side) pair, weakest first:
//
//	service shared < service side < function shared < function side
package hints

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Key identifies a hint category.
type Key string

// Supported hint keys.
const (
	KeyPerfGoal    Key = "perf_goal"    // latency | throughput | res_util
	KeyConcurrency Key = "concurrency"  // expected concurrent clients (int)
	KeyPayloadSize Key = "payload_size" // typical payload bytes (int)
	KeyPolling     Key = "polling"      // auto | busy | event
	KeyNUMA        Key = "numa"         // bind | none
	KeyTransport   Key = "transport"    // rdma | tcp
	KeyPriority    Key = "priority"     // high | low; validated, read by no layer
)

// PerfGoal is the value domain of KeyPerfGoal.
type PerfGoal string

// Performance-goal hint values (Fig. 6 x-axis).
const (
	GoalLatency    PerfGoal = "latency"
	GoalThroughput PerfGoal = "throughput"
	GoalResUtil    PerfGoal = "res_util"
)

// Polling is the value domain of KeyPolling.
type Polling string

// Polling-mechanism hint values (Figs. 4–5): auto lets the planner pick.
const (
	PollAuto  Polling = "auto"
	PollBusy  Polling = "busy"
	PollEvent Polling = "event"
)

// Side distinguishes the lateral hint scopes.
type Side int

// Lateral scopes: shared applies to both sides.
const (
	SideShared Side = iota
	SideServer
	SideClient
)

func (s Side) String() string {
	switch s {
	case SideServer:
		return "s_hint"
	case SideClient:
		return "c_hint"
	default:
		return "hint"
	}
}

// validators maps each key to its value check.
var validators = map[Key]func(string) error{
	KeyPerfGoal:    oneOf("latency", "throughput", "res_util"),
	KeyConcurrency: positiveInt,
	KeyPayloadSize: positiveInt,
	KeyPolling:     oneOf("auto", "busy", "event"),
	KeyNUMA:        oneOf("bind", "none"),
	KeyTransport:   oneOf("rdma", "tcp"),
	KeyPriority:    oneOf("high", "low"),
}

func oneOf(vals ...string) func(string) error {
	return func(v string) error {
		for _, w := range vals {
			if v == w {
				return nil
			}
		}
		return fmt.Errorf("must be one of %s", strings.Join(vals, "|"))
	}
}

func positiveInt(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return fmt.Errorf("must be a positive integer")
	}
	return nil
}

// Validate checks a single key/value pair. Unknown keys and malformed
// values are rejected — the code generator filters these out with a
// warning (§4.2).
func Validate(k Key, v string) error {
	check, ok := validators[k]
	if !ok {
		return fmt.Errorf("hints: unknown hint key %q", k)
	}
	if err := check(v); err != nil {
		return fmt.Errorf("hints: %s=%s: %v", k, v, err)
	}
	return nil
}

// Group is one lateral hint group: the key/value pairs declared in a
// single hint:/s_hint:/c_hint: clause (or the merge of several).
type Group map[Key]string

// Merge overlays other on top of g (other wins) and returns g.
func (g Group) Merge(other Group) Group {
	for k, v := range other {
		g[k] = v
	}
	return g
}

// String renders the group deterministically ("k=v, k=v").
func (g Group) String() string {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + g[Key(k)]
	}
	return strings.Join(parts, ", ")
}

// Set is the full lateral hint set at one vertical level (service or
// function): shared, server and client groups.
type Set struct {
	Shared Group
	Server Group
	Client Group
}

// NewSet returns an empty set with allocated groups.
func NewSet() *Set {
	return &Set{Shared: Group{}, Server: Group{}, Client: Group{}}
}

// Group returns the group for a lateral side, allocating if nil.
func (s *Set) Group(side Side) Group {
	switch side {
	case SideServer:
		if s.Server == nil {
			s.Server = Group{}
		}
		return s.Server
	case SideClient:
		if s.Client == nil {
			s.Client = Group{}
		}
		return s.Client
	default:
		if s.Shared == nil {
			s.Shared = Group{}
		}
		return s.Shared
	}
}

// Add records a validated hint in the given lateral group. Invalid hints
// return an error and are not recorded.
func (s *Set) Add(side Side, k Key, v string) error {
	if err := Validate(k, v); err != nil {
		return err
	}
	s.Group(side)[k] = v
	return nil
}

// ForSide flattens the lateral dimension for one side: shared hints
// overridden by that side's specific hints.
func (s *Set) ForSide(side Side) Group {
	g := Group{}
	if s.Shared != nil {
		g.Merge(s.Shared)
	}
	switch side {
	case SideServer:
		if s.Server != nil {
			g.Merge(s.Server)
		}
	case SideClient:
		if s.Client != nil {
			g.Merge(s.Client)
		}
	}
	return g
}

// Empty reports whether no hints are present at this level.
func (s *Set) Empty() bool {
	return len(s.Shared) == 0 && len(s.Server) == 0 && len(s.Client) == 0
}

// Resolve flattens the full hierarchy for one (function, side): service
// hints first, then function hints override per key (§4.1). Either set
// may be nil.
func Resolve(service, function *Set, side Side) Group {
	g := Group{}
	if service != nil {
		g.Merge(service.ForSide(side))
	}
	if function != nil {
		g.Merge(function.ForSide(side))
	}
	return g
}

// ---------------------------------------------------------------------------
// Resolved: typed view of a flattened group, consumed by the engine.

// Subscription classifies expected concurrency against a node's core
// count (Fig. 5 / Fig. 6 y-axis).
type Subscription int

// Subscription levels.
const (
	UnderSubscribed Subscription = iota
	FullySubscribed
	OverSubscribed
)

func (s Subscription) String() string {
	switch s {
	case UnderSubscribed:
		return "under"
	case FullySubscribed:
		return "full"
	default:
		return "over"
	}
}

// Resolved is the typed, defaulted form of a flattened hint group.
type Resolved struct {
	Goal        PerfGoal
	Concurrency int // expected concurrent clients; 0 = unknown
	PayloadSize int // expected payload bytes; 0 = unknown
	Polling     Polling
	NUMABind    bool
	UseTCP      bool
}

// DefaultResolved returns the engine defaults used when no hints are
// given: a balanced profile (throughput goal, auto polling).
func DefaultResolved() Resolved {
	return Resolved{Goal: GoalThroughput, Polling: PollAuto}
}

// TypeCheck parses a flattened group into a Resolved, applying defaults
// for absent keys. Values are assumed pre-validated; malformed values
// fall back to defaults rather than failing at call time.
func TypeCheck(g Group) Resolved {
	r := DefaultResolved()
	if v, ok := g[KeyPerfGoal]; ok {
		r.Goal = PerfGoal(v)
	}
	if v, ok := g[KeyConcurrency]; ok {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			r.Concurrency = n
		}
	}
	if v, ok := g[KeyPayloadSize]; ok {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			r.PayloadSize = n
		}
	}
	if v, ok := g[KeyPolling]; ok {
		r.Polling = Polling(v)
	}
	r.NUMABind = g[KeyNUMA] == "bind"
	r.UseTCP = g[KeyTransport] == "tcp"
	return r
}

// Subscription classifies r.Concurrency against the node's core count.
// Unknown concurrency is treated as fully subscribed (the balanced
// assumption).
func (r Resolved) Subscription(cores int) Subscription {
	if cores <= 0 {
		return FullySubscribed
	}
	switch {
	case r.Concurrency == 0:
		return FullySubscribed
	case r.Concurrency < cores:
		return UnderSubscribed
	case r.Concurrency == cores:
		return FullySubscribed
	default:
		return OverSubscribed
	}
}

// MakeSet builds a Set from literal maps — the constructor emitted by the
// HatRPC code generator for its hint tables. Values are assumed to have
// been validated at generation time; invalid entries are dropped to keep
// generated code total.
func MakeSet(shared, server, client map[Key]string) *Set {
	s := NewSet()
	for k, v := range shared {
		_ = s.Add(SideShared, k, v)
	}
	for k, v := range server {
		_ = s.Add(SideServer, k, v)
	}
	for k, v := range client {
		_ = s.Add(SideClient, k, v)
	}
	return s
}
