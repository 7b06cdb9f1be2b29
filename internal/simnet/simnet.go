// Package simnet models the cluster fabric the paper evaluated on: a set
// of nodes, each with a processor-sharing CPU and a NIC attached to a
// full-bisection switch, plus an out-of-band (ethernet/TCP-like) control
// channel used for connection establishment and handshakes.
//
// The fabric is intentionally message-granular: a transfer occupies the
// sender's TX engine for bytes/bandwidth, propagates for a fixed delay,
// and occupies the receiver's RX engine for bytes/bandwidth. A transport
// that cuts its messages into packets streams them through each engine in
// one reservation (BandwidthGate.Stream), not one per packet. Contention
// on either side queues FIFO, which is what makes a many-clients-one-server
// incast saturate at link rate, exactly as on the real cluster.
package simnet

import (
	"errors"
	"fmt"

	"hatrpc/internal/sim"
)

// ErrNodeDown reports a connection attempt to a node that is currently
// crashed (or whose listener vanished with a crash).
var ErrNodeDown = errors.New("simnet: node is down")

// ErrNoListener reports a connection attempt to a port nobody listens
// on. On a healthy static cluster this is a configuration error (Connect
// panics); during crash–restart churn it is an expected transient state
// (TryConnect returns it).
var ErrNoListener = errors.New("simnet: no listener on port")

// Config describes the simulated cluster hardware. The defaults mirror
// the paper's testbed (§5.1): 10 nodes, 28-core Skylake, ConnectX-5
// EDR 100 Gbps.
type Config struct {
	Nodes       int
	Cores       int     // cores per node
	Sockets     int     // NUMA sockets per node
	LinkGbps    float64 // NIC line rate
	PropDelayNs int64   // one-way switch propagation
	NUMAPenalty float64 // multiplier on CPU work for NUMA-remote tasks
}

// DefaultConfig returns the paper-testbed configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:       10,
		Cores:       28,
		Sockets:     2,
		LinkGbps:    100,
		PropDelayNs: 600,
		NUMAPenalty: 1.25,
	}
}

// Cluster is a simulated cluster.
type Cluster struct {
	env    *sim.Env
	cfg    Config
	nodes  []*Node
	faults *FaultPlan // nil when fault injection is off
}

// NewCluster builds the nodes described by cfg inside env.
func NewCluster(env *sim.Env, cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("simnet: need at least one node")
	}
	if cfg.Sockets < 1 {
		cfg.Sockets = 1
	}
	c := &Cluster{env: env, cfg: cfg}
	bytesPerNs := cfg.LinkGbps / 8.0 // Gbps → bytes per ns
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			id:        i,
			cluster:   c,
			CPU:       sim.NewCPU(env, cfg.Cores),
			TX:        NewBandwidthGate(env, bytesPerNs),
			RX:        NewBandwidthGate(env, bytesPerNs),
			listeners: make(map[string]*sim.Queue[*Endpoint]),
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Config returns the cluster hardware description.
func (c *Cluster) Config() Config { return c.cfg }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// PropDelay returns the one-way fabric propagation delay.
func (c *Cluster) PropDelay() sim.Duration {
	return sim.Duration(c.cfg.PropDelayNs)
}

// Node is one simulated machine.
type Node struct {
	id      int
	cluster *Cluster
	CPU     *sim.CPU
	TX      *BandwidthGate // NIC transmit serialization
	RX      *BandwidthGate // NIC receive serialization

	listeners map[string]*sim.Queue[*Endpoint]

	// Crash–restart lifecycle (DESIGN.md §12). epoch counts boots: it
	// increments on every crash, so messages and rkeys minted in an
	// earlier life of the node can be recognized as stale.
	down    bool
	epoch   uint64
	procs   []*sim.Proc       // live processes owned by this node
	onCrash []func()          // device/store teardown hooks, run in registration order
	restart func(p *sim.Proc) // re-provisioning hook, run after the restart delay
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// Epoch returns the node's boot epoch (0 for the first life, incremented
// by every crash).
func (n *Node) Epoch() uint64 { return n.epoch }

// Spawn starts fn as a simulation process owned by this node: when the
// node crashes, the process is killed (its defers run). All processes
// that model software running on a node must be spawned through this —
// a bare env.Spawn survives the machine losing power, which no software
// does.
func (n *Node) Spawn(name string, fn func(p *sim.Proc)) *sim.Proc {
	pr := n.cluster.env.Spawn(name, fn)
	n.procs = append(n.procs, pr)
	return pr
}

// OnCrash registers a teardown hook run when the node crashes, after its
// processes have been killed. Hooks model hardware/state consequences of
// power loss: the NIC invalidating its protection state, the store
// rolling volatile pages back to the durable root.
func (n *Node) OnCrash(fn func()) { n.onCrash = append(n.onCrash, fn) }

// SetRestart installs the re-provisioning hook: it runs as a fresh
// process once the restart delay elapses, and is expected to rebuild the
// node's software stack (device, engine, server) from scratch.
func (n *Node) SetRestart(fn func(p *sim.Proc)) { n.restart = fn }

// Crash models an abrupt power loss: every node-owned process is killed
// (deferred cleanup runs), crash hooks fire, and the node's listeners
// vanish so in-flight and future connection attempts fail. Messages
// already in the fabric addressed to (or sent by) this boot epoch are
// dropped on delivery. Idempotent while down. Must not be called from a
// process owned by this node (a process cannot kill itself).
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	env := n.cluster.env
	for _, pr := range n.procs {
		env.Kill(pr)
	}
	n.procs = nil
	// Snapshot-and-clear before running: hooks for per-boot state (the
	// NIC) die with the boot, while durable media (a store) re-register
	// themselves from inside their hook to survive into the next life.
	hooks := n.onCrash
	n.onCrash = nil
	for _, fn := range hooks {
		fn()
	}
	n.listeners = make(map[string]*sim.Queue[*Endpoint])
}

// Restart brings a crashed node back up and runs its restart hook (if
// any) as a new node-owned process. A no-op if the node is not down.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	if n.restart != nil {
		fn := n.restart
		n.Spawn(fmt.Sprintf("restart-%d", n.id), fn)
	}
}

// NUMAWork scales a CPU work amount for NUMA placement: bound tasks run
// at 1×, unbound tasks on a multi-socket node pay the remote-socket
// penalty.
func (n *Node) NUMAWork(work sim.Duration, bound bool) sim.Duration {
	if bound || n.cluster.cfg.Sockets <= 1 {
		return work
	}
	return sim.Duration(float64(work) * n.cluster.cfg.NUMAPenalty)
}

// LocalCores returns the cores of one NUMA socket (the NIC-local one).
func (n *Node) LocalCores() int {
	return n.cluster.cfg.Cores / n.cluster.cfg.Sockets
}

// ---------------------------------------------------------------------------
// BandwidthGate: FIFO serialization resource.

// BandwidthGate serializes transfers at a fixed byte rate. Acquisitions
// queue FIFO in arrival order; each occupies the gate for size/rate.
type BandwidthGate struct {
	env        *sim.Env
	bytesPerNs float64
	nextFree   sim.Time
	busyNs     int64 // accumulated occupancy, for utilization accounting

	// The gate's recent past, for transfers booked after their first
	// packets came through (Stream): it was idle in [idleFrom, busySince)
	// and has been busy since, and is taken to have been busy before.
	idleFrom, busySince sim.Time
}

// NewBandwidthGate returns a gate with the given rate in bytes/ns.
func NewBandwidthGate(env *sim.Env, bytesPerNs float64) *BandwidthGate {
	if bytesPerNs <= 0 {
		panic("simnet: gate rate must be positive")
	}
	return &BandwidthGate{env: env, bytesPerNs: bytesPerNs}
}

// SerializationTime returns the unloaded time to push size bytes through.
func (g *BandwidthGate) SerializationTime(size int) sim.Duration {
	return sim.Duration(float64(size) / g.bytesPerNs)
}

// Transmit blocks p until size bytes have been serialized through the
// gate, including any FIFO queueing behind earlier transmissions.
func (g *BandwidthGate) Transmit(p *sim.Proc, size int) {
	if size <= 0 {
		return
	}
	now := p.Now()
	start := now
	if g.nextFree > start {
		start = g.nextFree
	}
	ser := g.SerializationTime(size)
	g.nextFree = start + sim.Time(ser)
	g.busyNs += int64(ser)
	p.Sleep(sim.Duration(g.nextFree - now))
}

// Reserve accounts a transmission without blocking the caller; it returns
// the virtual time at which the transfer completes. Used by NIC engines
// that pipeline DMA with transmit.
func (g *BandwidthGate) Reserve(now sim.Time, size int) sim.Time {
	_, done := g.Stream(now, size, now)
	return done
}

// Stream is Reserve for a transfer that reaches the gate as a run of
// packets: the first was ready at from, and the last cannot be through
// before tail (it is still being produced upstream). The gate serves the
// transfer from its first packet on, so a transfer booked when its last
// packet arrives — from then lies in the past — is credited with the
// time the gate stood idle since from: its early packets went through
// then, and only the rest queues behind what the gate has booked since.
// Stream returns when the transfer's service starts and when it ends,
// never before tail; for a transfer booked at from with a tail the
// gate's own pace meets anyway, it is exactly Reserve.
func (g *BandwidthGate) Stream(from sim.Time, size int, tail sim.Time) (start, done sim.Time) {
	if size <= 0 {
		return from, from
	}
	work := sim.Time(g.SerializationTime(size))
	idle := max(from, g.idleFrom) // where the credited idle stretch begins
	switch {
	case g.nextFree <= from: // idle when the transfer began
		start, done = from, max(from+work, tail)
		g.idleFrom, g.busySince = g.nextFree, from
	case idle >= g.busySince: // busy all the while
		start, done = g.nextFree, max(g.nextFree+work, tail)
	case work <= g.busySince-idle: // served whole in the idle stretch
		start, done = idle, max(idle+work, tail)
		g.idleFrom = done
	default: // fills the idle stretch, then queues
		start, done = idle, max(g.nextFree+work-(g.busySince-idle), tail)
		g.idleFrom, g.busySince = idle, idle
	}
	g.nextFree = max(g.nextFree, done)
	g.busyNs += int64(work)
	return start, done
}

// BusyNs returns total accumulated occupancy in nanoseconds, including
// reservations that extend into the future (the raw value; see
// ReservedAheadNs).
func (g *BandwidthGate) BusyNs() int64 { return g.busyNs }

// ReservedAheadNs returns the portion of accumulated occupancy that has
// been reserved but not yet elapsed at time now. Reservations are FIFO,
// so the not-yet-elapsed part is exactly the contiguous tail ending at
// nextFree.
func (g *BandwidthGate) ReservedAheadNs(now sim.Time) int64 {
	if g.nextFree > now {
		return int64(g.nextFree - now)
	}
	return 0
}

// CompletedBusyNs returns occupancy that has actually elapsed by now —
// busyNs minus the reserved-ahead tail — so it never exceeds elapsed
// virtual time.
func (g *BandwidthGate) CompletedBusyNs(now sim.Time) int64 {
	return max(g.busyNs-g.ReservedAheadNs(now), 0)
}

// Utilization returns completed occupancy as a fraction of elapsed
// virtual time, always in [0, 1]. Reserve accounts transfers that extend
// into the future; that in-flight tail is excluded here (it previously
// made the gauge read >1 early in a run) and remains available via
// BusyNs/ReservedAheadNs for the pipeline-depth trace.
func (g *BandwidthGate) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(g.CompletedBusyNs(now)) / float64(now)
}

// ---------------------------------------------------------------------------
// Out-of-band control channel (ethernet/TCP analog).

const (
	oobBaseDelayNs  = 15000 // ~15µs per OOB message, kernel TCP path
	oobBytesPerNs   = 1.25  // 10 Gbps management network
	oobConnectDelay = 90000 // ~3-way handshake + accept wakeup
)

// Endpoint is one side of an established out-of-band connection. It
// carries arbitrary control payloads with TCP-like cost; it is used for
// RDMA connection handshakes (QP/buffer exchange) and by the IPoIB
// transport.
type Endpoint struct {
	local  *Node
	in     *sim.Queue[oobMsg]
	peer   *Endpoint
	closed bool
}

type oobMsg struct {
	payload any
	size    int
}

// Listen registers (or returns) the accept queue for a named port on the
// node. Accept blocks a server process until a client connects.
func (n *Node) Listen(port string) *Listener {
	q, ok := n.listeners[port]
	if !ok {
		q = sim.NewQueue[*Endpoint](n.cluster.env)
		n.listeners[port] = q
	}
	return &Listener{node: n, port: port, q: q}
}

// Listener accepts OOB connections on a node port.
type Listener struct {
	node *Node
	port string
	q    *sim.Queue[*Endpoint]
}

// Accept blocks until a client connects, returning the server-side
// endpoint.
func (l *Listener) Accept(p *sim.Proc) *Endpoint { return l.q.Pop(p) }

// Connect establishes an OOB connection from node n to the named port on
// the target node, blocking p for the handshake latency. It panics if the
// target is down or the port has no listener registered (a configuration
// error on a static cluster; crash-aware callers use TryConnect).
func (n *Node) Connect(p *sim.Proc, target *Node, port string) *Endpoint {
	ep, err := n.TryConnect(p, target, port)
	if err != nil {
		panic(fmt.Sprintf("simnet: connect to node %d port %q: %v", target.id, port, err))
	}
	return ep
}

// TryConnect is Connect for a fabric where the target may be crashed: it
// returns ErrNodeDown or ErrNoListener instead of panicking. The
// handshake latency is paid before the outcome is known (SYN goes out
// either way), and a target that crashes mid-handshake orphans the
// half-open connection — the pushed accept endpoint lands in a listener
// queue that died with the node.
func (n *Node) TryConnect(p *sim.Proc, target *Node, port string) (*Endpoint, error) {
	p.Sleep(oobConnectDelay)
	if target.down {
		return nil, ErrNodeDown
	}
	// A severed link (partition or scripted one-way cut) kills the
	// handshake in either direction: the SYN or the SYN-ACK is lost, and
	// to the caller that is indistinguishable from a dead node. Drops and
	// flaps deliberately do NOT apply here — the OOB channel models a
	// retrying kernel TCP path that rides out transient loss.
	if f := n.cluster.faults; f != nil {
		now := n.cluster.env.Now()
		if f.Severed(n.id, target.id, now) || f.Severed(target.id, n.id, now) {
			return nil, ErrNodeDown
		}
	}
	q, ok := target.listeners[port]
	if !ok {
		return nil, ErrNoListener
	}
	client := &Endpoint{local: n, in: sim.NewQueue[oobMsg](n.cluster.env)}
	server := &Endpoint{local: target, in: sim.NewQueue[oobMsg](n.cluster.env)}
	client.peer, server.peer = server, client
	q.Push(server)
	return client, nil
}

// Send ships payload (accounted as size bytes) to the peer, blocking the
// sender for the local kernel-path cost; delivery is asynchronous after
// the wire delay.
func (ep *Endpoint) Send(p *sim.Proc, payload any, size int) {
	if ep.closed {
		panic("simnet: send on closed endpoint")
	}
	env := ep.local.cluster.env
	wire := sim.Duration(oobBaseDelayNs + float64(size)/oobBytesPerNs)
	peer := ep.peer
	msg := oobMsg{payload: payload, size: size}
	// A crash of either end while the message is in flight drops it: the
	// receiver's sockets died with its boot epoch, and a sender reboot
	// orphans connections from its previous life.
	src, dst := ep.local, peer.local
	srcEpoch, dstEpoch := src.epoch, dst.epoch
	p.Sleep(2000) // sender syscall + copy
	// Partition cuts sever the control channel too (kernel TCP retries
	// cannot cross a cut link); random drops and flaps do not.
	if f := src.cluster.faults; f != nil && f.Severed(src.id, dst.id, env.Now()) {
		return
	}
	env.After(wire, func() {
		if src.epoch != srcEpoch || dst.epoch != dstEpoch || dst.down {
			return
		}
		peer.in.Push(msg)
	})
}

// Recv blocks until a payload arrives and returns it.
func (ep *Endpoint) Recv(p *sim.Proc) any {
	m := ep.in.Pop(p)
	return m.payload
}

// RecvUntil blocks until a payload arrives or virtual time reaches the
// absolute deadline until. ok is false on timeout. Handshakes with a
// peer that may crash mid-exchange must use this instead of Recv, which
// would park forever on a connection whose other end died.
func (ep *Endpoint) RecvUntil(p *sim.Proc, until sim.Time) (any, bool) {
	m, ok := ep.in.PopUntil(p, until)
	if !ok {
		return nil, false
	}
	return m.payload, true
}

// Close marks the endpoint closed (sends panic afterwards).
func (ep *Endpoint) Close() { ep.closed = true }
