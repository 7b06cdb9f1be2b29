// Fault injection for the simulated fabric. A FaultPlan is a
// deterministic, seeded fault model installed on a Cluster: per-packet
// drop probability, latency jitter, periodic link flaps (a directed link
// goes dark for a window) and node pauses (a node stops receiving for a
// window, as under a GC stall, kernel hiccup or failover). Transports
// (verbs NICs, ipoib) consult the plan on every message hop.
//
// Determinism: all randomness flows through sim.Env.Rand(), the single
// seeded RNG of the simulation, and the per-link flap phases and
// per-node pause phases are drawn eagerly at InstallFaults — so one seed
// yields one reproducible fault schedule, and two runs with the same
// seed and plan are byte-identical. A nil plan (the default) draws
// nothing and schedules nothing: fault injection off is exactly the
// no-fault build.
package simnet

import (
	"math"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// FaultConfig describes the injected fault model. The zero value injects
// nothing (and draws no randomness), so a zero-config plan behaves
// identically to no plan at all.
type FaultConfig struct {
	// DropProb is the per-packet probability that a fabric hop silently
	// loses a packet (0..1); a message is lost with any of its packets,
	// and is drawn for once.
	DropProb float64
	// JitterNs adds a uniform extra one-way delay in [0, JitterNs) to
	// every delivered message.
	JitterNs int64
	// FlapPeriodNs/FlapDownNs: every FlapPeriodNs of virtual time each
	// directed link goes down for FlapDownNs (messages sent during the
	// window are dropped). Each link's window phase is drawn from the
	// seeded RNG so flaps do not align across links.
	FlapPeriodNs int64
	FlapDownNs   int64
	// PausePeriodNs/PauseForNs: every PausePeriodNs each node in
	// PausedNodes stalls for PauseForNs; messages arriving at a paused
	// node are delayed until the pause window ends. Phases are drawn per
	// node from the seeded RNG.
	PausePeriodNs int64
	PauseForNs    int64
	// PausedNodes lists the node IDs subject to pauses (empty = none).
	PausedNodes []int
	// PartitionPeriodNs/PartitionForNs: every PartitionPeriodNs the nodes
	// in PartitionNodes split into two sides for PartitionForNs, and every
	// message crossing the cut — in either direction, on the fabric AND on
	// the out-of-band control channel — is dropped. Side membership is
	// redrawn per window from per-node values drawn eagerly at install, so
	// successive partitions cut different minorities; a window where every
	// node lands on one side is simply a quiet window. This is the
	// split-brain fault: unlike a flap (one directed link) it isolates a
	// node group completely, which is what epoch-fenced failover must
	// survive.
	PartitionPeriodNs int64
	PartitionForNs    int64
	// PartitionNodes lists the node IDs subject to partitions (empty =
	// none; links with an endpoint outside the set are never cut).
	PartitionNodes []int
	// OneWayCuts scripts asymmetric directed-link outages: messages
	// from→to inside [StartNs, EndNs) are dropped while the reverse
	// direction stays healthy. Unlike the seeded periodic faults these are
	// explicit test scripts (no RNG draws), used to pin down behavior
	// under asymmetric partitions — e.g. a call whose request arrives
	// while its reply vanishes.
	OneWayCuts []LinkCut
	// DropNth scripts single losses: the message carrying the N-th packet
	// (1-based, counted from the plan's installation) that crosses the
	// directed link from→to is dropped. Like OneWayCuts these are explicit
	// test scripts (no RNG draws); they pin down what a transport does when
	// one particular packet of a multi-packet transfer is lost. (Every
	// other fault acts on whole messages.)
	DropNth []NthDrop
}

// LinkCut is one scripted directed-link outage (see
// FaultConfig.OneWayCuts).
type LinkCut struct {
	From, To int
	StartNs  int64
	EndNs    int64
}

// NthDrop is one scripted single-packet loss (see FaultConfig.DropNth).
type NthDrop struct {
	From, To int
	N        int
}

// FaultPlan is an installed fault model. Obtain one with
// Cluster.InstallFaults; transports fetch it with Cluster.Faults (nil
// when fault injection is off).
type FaultPlan struct {
	env *sim.Env
	cfg FaultConfig

	flapPhase  map[[2]int]int64 // directed link → flap window phase
	pausePhase map[int]int64    // node → pause window phase
	partPhase  int64            // partition window phase (one global clock)
	partSide   map[int]uint64   // node → per-node side-draw value
	crossed    map[[2]int]int   // directed link → packets seen (DropNth only)

	// Counters are nil-safe; SetObs attaches them.
	drops          *obs.Counter // messages lost (random + flap + partition)
	flapDrops      *obs.Counter // of which lost to a down link
	partitionDrops *obs.Counter // of which lost crossing a partition cut
	delays         *obs.Counter // messages delayed by jitter or a paused node
}

// InstallFaults attaches a fault plan to the cluster and returns it. The
// per-link flap phases and per-node pause phases are drawn immediately
// from the environment's seeded RNG (in node-ID order, so the schedule
// depends only on the seed and the config).
func (c *Cluster) InstallFaults(cfg FaultConfig) *FaultPlan {
	fp := &FaultPlan{
		env:        c.env,
		cfg:        cfg,
		flapPhase:  make(map[[2]int]int64),
		pausePhase: make(map[int]int64),
	}
	rng := c.env.Rand()
	if cfg.FlapPeriodNs > 0 && cfg.FlapDownNs > 0 {
		for from := 0; from < len(c.nodes); from++ {
			for to := 0; to < len(c.nodes); to++ {
				if from != to {
					fp.flapPhase[[2]int{from, to}] = rng.Int63n(cfg.FlapPeriodNs)
				}
			}
		}
	}
	if cfg.PausePeriodNs > 0 && cfg.PauseForNs > 0 {
		for _, n := range cfg.PausedNodes {
			fp.pausePhase[n] = rng.Int63n(cfg.PausePeriodNs)
		}
	}
	if cfg.partitionOn() {
		fp.partPhase = rng.Int63n(cfg.PartitionPeriodNs)
		fp.partSide = make(map[int]uint64)
		for _, n := range cfg.PartitionNodes {
			fp.partSide[n] = uint64(rng.Int63())
		}
	}
	// A config with nothing enabled leaves the cluster fault-free: Faults()
	// stays nil, so transports and the engine's reliability heuristics take
	// the exact no-fault code path (byte-identical traces).
	if cfg.enabled() {
		c.faults = fp
	} else {
		c.faults = nil
	}
	return fp
}

// enabled reports whether any fault feature is actually configured.
func (cfg FaultConfig) enabled() bool {
	return cfg.DropProb > 0 || cfg.JitterNs > 0 ||
		(cfg.FlapPeriodNs > 0 && cfg.FlapDownNs > 0) ||
		(cfg.PausePeriodNs > 0 && cfg.PauseForNs > 0 && len(cfg.PausedNodes) > 0) ||
		cfg.partitionOn() || len(cfg.OneWayCuts) > 0 || len(cfg.DropNth) > 0
}

// partitionOn reports whether the periodic partition fault is configured.
func (cfg FaultConfig) partitionOn() bool {
	return cfg.PartitionPeriodNs > 0 && cfg.PartitionForNs > 0 && len(cfg.PartitionNodes) >= 2
}

// Faults returns the installed fault plan, or nil when fault injection
// is off.
func (c *Cluster) Faults() *FaultPlan { return c.faults }

// SetObs attaches drop/delay counters (simnet.drops, simnet.flap_drops,
// simnet.delayed) to the plan. Counters are shared by name when several
// plans attach to one registry. Pass nil to detach.
func (fp *FaultPlan) SetObs(r *obs.Registry) {
	if r == nil {
		fp.drops, fp.flapDrops, fp.delays = nil, nil, nil
		return
	}
	fp.drops = r.Counter("simnet.drops")
	fp.flapDrops = r.Counter("simnet.flap_drops")
	fp.partitionDrops = r.Counter("simnet.partition_drops")
	fp.delays = r.Counter("simnet.delayed")
}

// partMix derives node side's for partition window w from its eagerly
// drawn per-node value: a splitmix64-style finalizer over (side, w) so
// consecutive windows redraw membership without touching the RNG at
// runtime (runtime draws would make fault timing depend on message
// timing and break byte-identical replay).
func partMix(side, w uint64) uint64 {
	z := side ^ (w * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Severed reports whether the directed link from→to is cut at time t —
// by the periodic partition (both endpoints in PartitionNodes, on
// opposite sides of the current window) or by a scripted one-way cut.
// Unlike drops and flaps, severed links also kill the out-of-band
// control channel: a partitioned node cannot re-handshake across the
// cut, which is what makes split-brain scenarios real.
func (fp *FaultPlan) Severed(from, to int, t sim.Time) bool {
	if fp == nil {
		return false
	}
	if fp.cfg.partitionOn() {
		into := (int64(t) + fp.partPhase) % fp.cfg.PartitionPeriodNs
		if into < fp.cfg.PartitionForNs {
			sf, okf := fp.partSide[from]
			st, okt := fp.partSide[to]
			if okf && okt {
				w := uint64((int64(t) + fp.partPhase) / fp.cfg.PartitionPeriodNs)
				if partMix(sf, w)&1 != partMix(st, w)&1 {
					return true
				}
			}
		}
	}
	for _, cut := range fp.cfg.OneWayCuts {
		if cut.From == from && cut.To == to &&
			int64(t) >= cut.StartNs && int64(t) < cut.EndNs {
			return true
		}
	}
	return false
}

// linkDown reports whether the directed link from→to is inside a flap
// window at time t.
func (fp *FaultPlan) linkDown(from, to int, t sim.Time) bool {
	if fp.cfg.FlapPeriodNs <= 0 || fp.cfg.FlapDownNs <= 0 {
		return false
	}
	phase, ok := fp.flapPhase[[2]int{from, to}]
	if !ok {
		return false
	}
	return (int64(t)+phase)%fp.cfg.FlapPeriodNs < fp.cfg.FlapDownNs
}

// pauseRemaining returns how long node is still paused at time t (zero
// when the node is running).
func (fp *FaultPlan) pauseRemaining(node int, t sim.Time) sim.Duration {
	if fp.cfg.PausePeriodNs <= 0 || fp.cfg.PauseForNs <= 0 {
		return 0
	}
	phase, ok := fp.pausePhase[node]
	if !ok {
		return 0
	}
	into := (int64(t) + phase) % fp.cfg.PausePeriodNs
	if into < fp.cfg.PauseForNs {
		return sim.Duration(fp.cfg.PauseForNs - into)
	}
	return 0
}

// nthDrop counts a message of packets packets on the directed link
// from→to and reports whether a DropNth script names one of them.
func (fp *FaultPlan) nthDrop(from, to, packets int) bool {
	if len(fp.cfg.DropNth) == 0 {
		return false
	}
	if fp.crossed == nil {
		fp.crossed = make(map[[2]int]int)
	}
	link := [2]int{from, to}
	seen := fp.crossed[link]
	fp.crossed[link] = seen + packets
	for _, d := range fp.cfg.DropNth {
		if d.From == from && d.To == to && d.N > seen && d.N <= seen+packets {
			return true
		}
	}
	return false
}

// lossOf is the probability that a message of packets packets loses one
// of them when each is lost with probability p.
func lossOf(p float64, packets int) float64 {
	if packets == 1 {
		return p
	}
	return 1 - math.Pow(1-p, float64(packets))
}

// Outcome draws the fate of one message of packets packets on the
// directed link from→to at the current virtual time: dropped (lost
// forever at this hop), or delivered with extra one-way delay (jitter
// plus any destination pause window). RNG draws happen only for the
// features the config enables, so a zero config perturbs nothing.
func (fp *FaultPlan) Outcome(from, to, packets int) (drop bool, extra sim.Duration) {
	now := fp.env.Now()
	if fp.linkDown(from, to, now) {
		fp.drops.Inc()
		fp.flapDrops.Inc()
		return true, 0
	}
	if fp.Severed(from, to, now) {
		fp.drops.Inc()
		fp.partitionDrops.Inc()
		return true, 0
	}
	if p := fp.cfg.DropProb; p > 0 && fp.env.Rand().Float64() < lossOf(p, packets) {
		fp.drops.Inc()
		return true, 0
	}
	if fp.nthDrop(from, to, packets) {
		fp.drops.Inc()
		return true, 0
	}
	if fp.cfg.JitterNs > 0 {
		extra += sim.Duration(fp.env.Rand().Int63n(fp.cfg.JitterNs))
	}
	if pause := fp.pauseRemaining(to, now); pause > 0 {
		extra += pause
	}
	if extra > 0 {
		fp.delays.Inc()
	}
	return false, extra
}
