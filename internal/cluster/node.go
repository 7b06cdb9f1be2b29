package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Config is the shared cluster configuration. Every node and every
// client must be built from the same (Seed, NodeIDs, NShards, RF) —
// ring placement is a pure function of them. A zero ProbeIntervalNs gets
// a default.
type Config struct {
	Seed    int64
	NodeIDs []int // simnet node ids hosting cluster nodes, ascending
	NShards int
	RF      int // replicas per shard (primary included)

	ProbeIntervalNs int64 // monitor tick spacing, virtual ns
}

// Failover and client pacing, virtual ns.
const (
	probeDeadlineNs  int64 = 120_000 // one census call
	callDeadlineNs   int64 = 300_000 // replication, prepare, pull and install calls
	clientDeadlineNs int64 = 300_000 // one client-facing call
	clientBackoffNs  int64 = 150_000 // pacing between client retries

	silenceTicks   = 2  // monitor ticks without word of the primary before a census (clocks assumed drift-free)
	clientAttempts = 12 // retry budget per client Put/Get
)

// RF2Refusal is why no cluster is built at replication factor 2.
// Promotion needs a majority of the replica set, and of two that is both:
// the shard would replicate while healthy and then stay without a primary
// for good after its first replica loss.
const RF2Refusal = "replication factor 2 can never fail over (a quorum of 2 replicas is 2, so one loss leaves no majority to promote): use 1, or 3 and more"

// withDefaults is the one gate every node, client and soak builds its
// Config through. RF 2 is a programming error here: a configuration file
// is refused earlier, with an error (node.Config.Validate).
func (c Config) withDefaults() Config {
	if c.NShards <= 0 {
		c.NShards = 8
	}
	if c.RF <= 0 {
		c.RF = 3
	}
	if c.RF == 2 {
		panic("cluster: " + RF2Refusal)
	}
	if c.ProbeIntervalNs <= 0 {
		c.ProbeIntervalNs = 150_000
	}
	return c
}

// shardState is one shard's in-memory state at one replica, rebuilt
// from its durable position (durablePosition) on every boot. Content fields mirror
// what the local store holds; learned fields are routing hearsay
// (always ≥ content) served to clients and used to demote deposed
// primaries.
type shardState struct {
	id       int
	replicas []int  // configured replica set, ring order
	prefix   string // store key prefix of the shard's records (dataPrefix)
	metaKey  string // store key of the shard's durable meta record

	epoch   int64 // content epoch
	primary int   // content primary
	seq     int64 // last applied replication seq in the content epoch

	// lostEpoch is the boot fence (DESIGN.md §15 rule 1): the content
	// epoch whose primacy this replica gave up — it rebooted as that
	// epoch's primary, or shipped an append it then failed to commit — and
	// with it the right to name a seq. While it equals epoch the shard
	// answers Fenced and the monitor runs a candidacy; any install of a
	// higher epoch moves epoch past it, so there is nothing to clear.
	lostEpoch int64

	learnedEpoch   int64
	learnedPrimary int

	promised int64  // durable candidacy promise (mirrors meta)
	rec      []byte // the meta record in flight (record)

	// Failure detection (failover.go): the last word that the primary leads
	// (or a granted prepare), whether a census has since found it silent,
	// and that census's answers.
	lastHeard sim.Time
	silent    bool
	answers   []peerStat

	// mu serializes writes, installs and candidacy on this shard at
	// this replica. Lock order: shard mu → session mu, never reversed.
	mu *sim.Mutex

	// Primary-side replication bookkeeping.
	suspect  map[int]bool // backup → needs a resync install (direct index only)
	repl     []replJob    // fan-out slots, one per backup, reused by every put (under mu)
	replDone *sim.Signal  // fired by a lane per finished slot
}

// peerStat is one census answer: a replica and the status it reported.
type peerStat struct {
	id int
	sr gen.ShardStatus
}

// NodeStats counts a cluster node's lifecycle events (deterministic
// under one seed; the soak folds them into its report).
type NodeStats struct {
	Promotions   int64 // candidacies won (view installs reaching quorum)
	Candidacies  int64 // candidacies that passed the pre-vote
	Resyncs      int64 // same-epoch snapshot installs pushed to lagging backups
	StaleWrites  int64 // Stale answers to writes and reads
	FencedWrites int64 // writes refused under an outstanding promise
}

// Add folds another boot's (or node's) counters into s.
func (s *NodeStats) Add(o NodeStats) {
	s.Promotions += o.Promotions
	s.Candidacies += o.Candidacies
	s.Resyncs += o.Resyncs
	s.StaleWrites += o.StaleWrites
	s.FencedWrites += o.FencedWrites
}

// Node is one cluster server: a shard-aware KV service over the node's
// durable hatkv store, plus the failover monitor that probes primaries,
// runs epoch-fenced candidacies, and resynchronizes lagging backups.
// Build one per boot with NewUnservedNode — it dies with the simnet
// node's crash, while the store underneath survives into the next boot.
type Node struct {
	peerSessions // replication and failover calls to the other nodes (peer: the monitor's)
	proc         *gen.ClusterProcessor

	cfg   Config
	self  int // index into cfg.NodeIDs == position in roster
	env   *sim.Env
	store *hatkv.Store

	shards   map[int]*shardState          // shards where self is a configured replica
	lanes    map[int]*sim.Queue[*replJob] // backup peer → replication lane (replicate.go)
	shardIDs []int                        // sorted keys of shards
	initial  *ShardMap                    // static epoch-1 map for non-owned entries

	stats NodeStats

	promotions  *obs.Counter
	resyncs     *obs.Counter
	staleRej    *obs.Counter
	fencedRej   *obs.Counter
	backupAhead *obs.Counter
}

// NewUnservedNode builds the cluster service for one boot of a simnet
// node: recovers per-shard meta from the durable store and spawns the
// failover monitor as a node-owned process. self is the node's index into
// cfg.NodeIDs. It registers no wire handler: the caller serves Handle on
// cluster.Port and so owns the engine.Server — the node lifecycle layer
// (internal/node) drains and sizes admission on it.
func NewUnservedNode(eng *engine.Engine, store *hatkv.Store, roster []*simnet.Node, self int, cfg Config) *Node {
	cfg = cfg.withDefaults()
	env := eng.Node().Cluster().Env()
	n := &Node{
		peerSessions: newPeerSessions(eng, roster, peerDeadline),
		cfg:          cfg,
		self:         self,
		env:          env,
		store:        store,
		shards:       make(map[int]*shardState),
		lanes:        make(map[int]*sim.Queue[*replJob]),
		initial:      NewShardMap(cfg.Seed, cfg.NodeIDs, cfg.NShards, cfg.RF),
	}
	ring := buildRing(cfg.Seed, cfg.NodeIDs)
	for s := 0; s < cfg.NShards; s++ {
		reps := ring.replicas(s, cfg.RF)
		if !slices.Contains(reps, self) {
			continue
		}
		st := &shardState{
			id:             s,
			replicas:       reps,
			prefix:         dataPrefix(s),
			metaKey:        metaKey(s),
			epoch:          1,
			primary:        reps[0],
			learnedEpoch:   1,
			learnedPrimary: reps[0],
			mu:             sim.NewMutex(env),
			suspect:        make(map[int]bool),
			repl:           make([]replJob, 0, len(reps)),
			rec:            make([]byte, 0, metaLen),
			lastHeard:      env.Now(),
			replDone:       sim.NewSignal(env),
		}
		n.recoverMeta(st)
		if st.primary == self && len(reps) > 1 && eng.Node().Epoch() > 0 {
			// A rebooted primary: the append in flight when the last boot died,
			// or a tail the sync mode let go, may be durable on a backup only.
			st.fence()
		}
		n.shards[s] = st
		n.shardIDs = append(n.shardIDs, s)
	}
	// shardIDs is built in ascending shard order already (the loop above).
	n.proc = gen.NewClusterProcessor(service{n})
	n.startMonitor()
	return n
}

// Stats returns the node's lifecycle counters.
func (n *Node) Stats() NodeStats { return n.stats }

// SetObs attaches cluster counters (cluster.promotions, cluster.resyncs,
// cluster.stale_writes, cluster.fenced_writes, cluster.backup_ahead) to
// the node, and the write-queue histograms to its store. A nil registry
// detaches.
func (n *Node) SetObs(r *obs.Registry) {
	n.store.SetObs(r)
	n.promotions = r.Counter("cluster.promotions")
	n.resyncs = r.Counter("cluster.resyncs")
	n.staleRej = r.Counter("cluster.stale_writes")
	n.fencedRej = r.Counter("cluster.fenced_writes")
	n.backupAhead = r.Counter("cluster.backup_ahead")
}

// recoverMeta loads the shard's durable position: a restart resumes at
// the exact (epoch, primary, seq, promise) its surviving data belongs to.
func (n *Node) recoverMeta(st *shardState) {
	m := durablePosition(n.store, st.id, st.position())
	// A durable record can only move the shard forward. At boot (the
	// only call site) st holds the epoch-1 defaults, so the fence is a
	// no-op there; it makes recoverMeta safe to call from any future
	// re-read path without resurrecting a deposed position.
	if m.Epoch < st.epoch || m.Seq < st.seq || m.Promised < st.promised {
		return
	}
	st.epoch = m.Epoch
	st.primary = int(m.Primary)
	st.seq = m.Seq
	st.promised = m.Promised
	st.adoptLearned(m.Epoch, int(m.Primary))
}

// durablePosition reads one shard's durable position from store: its
// meta record, or def without one, with Seq advanced by every data
// record's stamp (shardMeta.advance), in the tree and in the store's log
// alike — what a cold restart recovers. It reads the backing env directly,
// outside simulated time: boots and audits call it, never a request.
func durablePosition(store *hatkv.Store, shard int, def shardMeta) shardMeta {
	txn, err := store.Env().BeginRead()
	if err != nil {
		return def
	}
	defer txn.Abort()
	m := def
	if raw, err := txn.Get([]byte(metaKey(shard))); err == nil {
		if d, ok := decodeShardMeta(raw); ok {
			m = d
		}
	}
	prefix := []byte(dataPrefix(shard))
	for c := txn.Seek(prefix); c.Valid() && bytes.HasPrefix(c.Key(), prefix); c.Next() {
		m.advance(c.Value())
	}
	logged := store.Logged()
	for i := 0; i < len(logged); i += 2 {
		if bytes.HasPrefix(logged[i], prefix) {
			m.advance(logged[i+1])
		}
	}
	return m
}

// position is the shard's in-memory position as its meta record holds it.
func (st *shardState) position() shardMeta {
	return shardMeta{Epoch: st.epoch, Primary: int32(st.primary), Seq: st.seq, Promised: st.promised}
}

// record renders the shard's meta record into st.rec. The buffer is
// reused by every write under mu, which each caller holds until its store
// write returns: the store copies the bytes on Put, and a writer that
// parks copies them before it waits.
func (st *shardState) record() []byte {
	st.rec = st.position().appendTo(st.rec[:0])
	return st.rec
}

// adoptLearned folds fresher routing hearsay into the shard (monotone
// in epoch). It never touches content state — only installs do.
func (st *shardState) adoptLearned(epoch int64, primary int) {
	if epoch > st.learnedEpoch {
		st.learnedEpoch = epoch
		st.learnedPrimary = primary
	}
}

// fence gives up this replica's primacy of its content epoch (lostEpoch).
func (st *shardState) fence() {
	if st.lostEpoch < st.epoch {
		st.lostEpoch = st.epoch
	}
}

// lost reports whether the fence is up (no install moved epoch past it).
func (st *shardState) lost() bool { return st.lostEpoch >= st.epoch }

// leads reports whether this replica may act as the shard's primary: its
// content names it, it knows of no fresher view, no candidacy holds its
// promise, and it has not lost track of the epoch.
func (st *shardState) leads(self int) bool {
	return st.primary == self && st.learnedEpoch == st.epoch && st.promised <= st.epoch && !st.lost()
}

// learned is the Stale exception carrying the freshest routing this
// replica knows.
func learned(st *shardState) *gen.Stale {
	return &gen.Stale{Epoch: st.learnedEpoch, Primary: int32(st.learnedPrimary)}
}

// stale refuses a write or a read from a view behind this replica's.
func (n *Node) stale(st *shardState) error {
	n.stats.StaleWrites++
	n.staleRej.Inc()
	return learned(st)
}

// fenced refuses a request under a candidacy's promise or the boot fence.
func (n *Node) fenced() error {
	n.stats.FencedWrites++
	n.fencedRej.Inc()
	return errFenced
}

// The declared exceptions without a payload, shared by every answer.
var (
	errFenced    = &gen.Fenced{}
	errNotQuorum = &gen.NotQuorum{}
	errNeedSync  = &gen.NeedSync{}
	errNotFound  = &gen.NotFound{}
)

// Failures that are no declared outcome: the processor answers them with
// an application exception, which callers treat as a refusal to retry.
var (
	errNotReplica  = errors.New("cluster: not a replica of the shard")
	errBackupAhead = errors.New("cluster: position below the backup's own")
	errShortRecord = errors.New("cluster: record too short for its stamp")
)

// Fence trips. These mark a caller trying to move a shard backwards —
// impossible through the current handlers, which all pre-check — and
// surface as an application exception to the peer if a future path
// forgets to.
var (
	errStaleSeq     = errors.New("cluster: write seq not past the shard position")
	errStaleInstall = errors.New("cluster: install below the shard epoch")
	errStalePromise = errors.New("cluster: promise not past the prepare fence")
)

// applyWrite writes one replicated record stamped with its (epoch, seq)
// in one store write, so durability of the data and of its position are
// inseparable under every sync mode. The primary commits it (PutOwned); a
// backup, logged, appends it (Append), and its applier commits it later
// (DESIGN.md §15 "The backup's ack path"), keeping the pair dataPair builds.
func (n *Node) applyWrite(p *sim.Proc, st *shardState, key, val []byte, seq int64, logged bool) error {
	// Content position only advances. Both callers already hand the
	// next contiguous seq (handlePut computes st.seq+1, handleReplicate
	// rejects gaps and duplicates), so the fence never trips today.
	if seq <= st.seq {
		return errStaleSeq
	}
	k, v := dataPair(st.prefix, key, st.epoch, seq, val)
	var err error
	if logged {
		n.store.Append(p, k, v)
	} else {
		_, err = n.store.PutOwned(p, k, v)
	}
	if err == nil {
		// Commit the in-memory position only once the store did: no
		// transient advance to roll back on failure.
		st.seq = seq
	}
	return err
}

// applyInstall replaces the shard's state wholesale with a snapshot at
// (epoch, seq) of primary's view: every record plus the new meta in one
// commit. Records never deleted under this protocol can only be
// overwritten, so replacement == overwrite.
func (n *Node) applyInstall(p *sim.Proc, st *shardState, epoch int64, primary int, seq int64, recs []*gen.Pair) error {
	// Installs move the content view forward. Callers bounce stale
	// pushes before getting here (Install's fence, the candidate's
	// own promised epoch); this local fence makes the invariant hold no
	// matter who calls.
	if epoch < st.epoch {
		return errStaleInstall
	}
	// The install overwrites records: none of its shard's older appends
	// may land on top of it.
	if err := n.store.Settle(p); err != nil {
		return err
	}
	prev := *st
	st.epoch = epoch
	st.primary = primary
	// The content seq is epoch-scoped: a view-change install legally
	// resets it to the snapshot's position, lower or not.
	st.seq = seq //hatlint:allow epochfence -- seq is epoch-scoped; an install adopts the snapshot position wholesale
	if epoch > st.promised {
		st.promised = epoch
	}
	st.adoptLearned(epoch, primary)
	pairs := make([]*kvgen.KVPair, 0, len(recs)+1)
	for _, r := range recs {
		pairs = append(pairs, &kvgen.KVPair{Key: string(r.Key), Value: r.Value})
	}
	pairs = append(pairs, &kvgen.KVPair{Key: st.metaKey, Value: st.record()})
	if err := n.store.MultiPut(p, pairs); err != nil {
		*st = prev
		return err
	}
	return nil
}

// promise durably records an epoch promise (the prepare half of
// candidacy): from this commit on — across crashes — the replica
// refuses writes and view-change installs below the promised epoch.
func (n *Node) promise(p *sim.Proc, st *shardState, epoch int64) error {
	// The prepare fence only ratchets up. Prepare and runCandidacy
	// both check before calling; the local fence keeps promise() safe to
	// call bare.
	if epoch <= st.promised {
		return errStalePromise
	}
	prev := st.promised
	st.promised = epoch
	if err := n.store.Put(p, st.metaKey, st.record()); err != nil {
		st.promised = prev
		return err
	}
	return nil
}

// snapshotLocked copies out every record of the shard. Caller holds st.mu,
// so the snapshot is a consistent prefix of its content position; it
// settles the store first, so the prefix holds every append acked.
func (n *Node) snapshotLocked(p *sim.Proc, st *shardState) ([]*gen.Pair, error) {
	if err := n.store.Settle(p); err != nil {
		return nil, err
	}
	txn, err := n.store.Env().BeginRead()
	if err != nil {
		return nil, err
	}
	defer txn.Abort()
	prefix := st.prefix
	var out []*gen.Pair
	for c := txn.Seek([]byte(prefix)); c.Valid(); c.Next() {
		k := c.Key()
		if len(k) < len(prefix) || string(k[:len(prefix)]) != prefix {
			break
		}
		k, v := lmdb.CopyPair(k, c.Value())
		out = append(out, &gen.Pair{Key: k, Value: v})
	}
	return out, nil
}

// peerDeadline bounds one call of a node to a peer: a census is tighter
// than the rest, so a dead primary is detected within a few ticks.
func peerDeadline(fn string) sim.Duration {
	if fn == "Census" {
		return sim.Duration(probeDeadlineNs)
	}
	return sim.Duration(callDeadlineNs)
}

// CloseSessions closes the node's cached replication sessions in roster
// order — part of graceful shutdown, so this node's QPs are released
// before the engine closes.
func (n *Node) CloseSessions() { n.closeSessions() }

// Handle serves the cluster service (cluster.hrpc) through its generated
// processor: the handler the caller of NewUnservedNode serves on
// cluster.Port. fn is the verb's wire id.
func (n *Node) Handle(p *sim.Proc, fn uint32, req []byte) []byte {
	return n.proc.ProcessBytes(p, fn, req)
}

// service is the node as the generated processor's handler: one method
// per verb. Arguments are lent for the call, like the request they lie in.
type service struct{ *Node }

// notOwned answers a data verb for a shard this node is no replica of
// with the static view, so a confused client re-routes.
func (n service) notOwned(shard int32) error {
	e := n.initial.Shards[int(uint32(shard))%len(n.initial.Shards)]
	return &gen.Stale{Epoch: e.Epoch, Primary: e.Primary}
}

// ShardMap serves this node's routing view: its own shards' learned
// (epoch, primary), the static epoch-1 map for the rest. Clients merge
// views across nodes, so each shard's replicas — which always know the
// freshest epoch — win. The static routes are shared, not copied: a
// served map is encoded, never changed.
func (n service) ShardMap(p *sim.Proc) (gen.Routes, error) {
	rs := gen.Routes{Shards: slices.Clone(n.initial.Shards)}
	for _, id := range n.shardIDs {
		st := n.shards[id]
		rs.Shards[id] = &gen.Route{Epoch: st.learnedEpoch, Primary: int32(st.learnedPrimary), Replicas: rs.Shards[id].Replicas}
	}
	return rs, nil
}

// Put executes a client write as the shard primary: fence and epoch
// checks, then the append — the request's own key and value under the
// next seq — goes onto the backups' lanes (replicate.go) and the primary
// commits locally on this process while they run: the put costs
// max(commit, hop + commit), not their sum. The ack requires the local
// commit and a majority of the replica set (self included). Split-brain
// safety lives here: a deposed or minority-side primary cannot assemble a
// quorum, so it can never acknowledge. A local commit that fails was
// already shipped: its seq may be durable on a backup, so the shard is
// fenced until a candidacy has adopted the freshest replica — a seq is
// never named twice.
func (n service) Put(p *sim.Proc, shard int32, epoch int64, key, value []byte) error {
	st := n.shards[int(shard)]
	if st == nil {
		return n.notOwned(shard)
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if st.promised > st.epoch {
		return n.fenced() // a candidacy holds our durable promise
	}
	if st.primary != n.self || epoch != st.epoch || st.learnedEpoch != st.epoch {
		return n.stale(st)
	}
	if st.lost() {
		return n.fenced() // primary by content, but it lost track of the epoch
	}
	seq := st.seq + 1
	n.ship(st, seq, key, value)
	err := n.applyWrite(p, st, key, value, seq, false)
	backs, stale := n.gather(p, st)
	switch {
	case err != nil:
		if len(st.repl) > 0 { // it was shipped: the seq is burnt
			st.fence()
		}
		return err
	case stale:
		return n.stale(st) // deposed mid-write; never ack
	case 1+backs < quorum(len(st.replicas)):
		return errNotQuorum
	}
	return nil
}

// Get serves a read from the primary's local store. Reads carry the same
// epoch check as writes, so a client routing at a stale epoch refreshes
// instead of reading from a deposed primary.
func (n service) Get(p *sim.Proc, shard int32, epoch int64, key []byte) ([]byte, error) {
	st := n.shards[int(shard)]
	if st == nil {
		return nil, n.notOwned(shard)
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if st.primary != n.self || epoch != st.epoch || st.learnedEpoch != st.epoch {
		return nil, n.stale(st)
	}
	if st.lost() {
		return nil, n.fenced()
	}
	rec, err := n.store.Get(p, dataKey(st.prefix, key))
	if errors.Is(err, hatkv.ErrNotFound) {
		return nil, errNotFound
	}
	// A failing store, or a record too short for its stamp, is not an
	// absent key: the client must retry, not report acknowledged data as
	// deleted.
	if err != nil {
		return nil, err
	}
	_, _, v, ok := readStamp(rec)
	if !ok {
		return nil, errShortRecord
	}
	return v, nil
}

// Replicate accepts one ordered log append from the shard primary.
// Acceptance demands the exact content view (epoch AND primary), no
// fresher hearsay, no outstanding higher promise, and a contiguous seq. A
// replay of the last append (a session re-sending it after a reconnect)
// acks idempotently; gaps demand a snapshot install — a replica's content
// is therefore always a prefix of its primary's write sequence, which is
// what lets candidacy pick "freshest replica" by (epoch, seq) alone. The
// replay is recognised by its seq, not its content: the backup keeps no
// copy of what it applied under a seq, so seq == st.seq with other bytes
// would be acked unapplied. What rules that out is the primary's side — a
// primary that may have lost track of a shipped seq is fenced and
// re-elects (shardState.lostEpoch) — not this check. A seq below the
// backup's position is no replay (the lanes send one append at a time):
// the primary is behind its backup, which the fence makes impossible, so
// it is counted and refused, never acked.
func (n service) Replicate(p *sim.Proc, shard int32, epoch int64, primary int32, seq int64, key, value []byte) error {
	st := n.shards[int(shard)]
	if st == nil {
		return errNotReplica // replicate to a non-replica: config bug
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if epoch < st.epoch || (epoch == st.epoch && int(primary) != st.primary) || epoch < st.learnedEpoch {
		return n.stale(st)
	}
	if epoch < st.promised {
		return n.fenced()
	}
	st.lastHeard, st.silent = p.Now(), false // word from a primary this replica follows
	switch {
	case epoch > st.epoch:
		return errNeedSync // only installs advance content epochs
	case seq < st.seq:
		n.backupAhead.Inc()
		return errBackupAhead
	case seq == st.seq:
		return nil // replay of the append applied last
	case seq != st.seq+1:
		return errNeedSync
	}
	return n.applyWrite(p, st, key, value, seq, true)
}

// status is the shard's state as a census or a prepare reports it.
func (n service) status(st *shardState) gen.ShardStatus {
	return gen.ShardStatus{
		Epoch:          st.epoch,
		Seq:            st.seq,
		LearnedEpoch:   st.learnedEpoch,
		LearnedPrimary: int32(st.learnedPrimary),
		Promised:       st.promised,
		Leads:          st.leads(n.self),
		Heard:          st.hears(n.self),
	}
}

// Census answers with the shard's state, lock-free: a put holding the
// shard mutex does not delay a primary's answer, and as each writer runs
// until it blocks, the answer is the shard at one instant.
func (n service) Census(p *sim.Proc, shard int32) (gen.ShardStatus, error) {
	st := n.shards[int(shard)]
	if st == nil {
		return gen.ShardStatus{}, errNotReplica
	}
	return n.status(st), nil
}

// Prepare durably promises the candidate's epoch, under the mutex, and
// answers with the shard's state. The promise is the fence: from its
// commit on — across this replica's own crashes — every write below the
// promised epoch is refused, so an old primary can never assemble an ack
// quorum behind a candidacy's back. A replica that hears its primary
// promises no one but that primary re-electing itself (stickiness).
func (n service) Prepare(p *sim.Proc, shard int32, epoch int64, reelect bool) (gen.ShardStatus, error) {
	st := n.shards[int(shard)]
	if st == nil {
		return gen.ShardStatus{}, errNotReplica
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	switch {
	case epoch <= st.promised || epoch <= st.epoch:
		return gen.ShardStatus{}, learned(st) // the candidate must re-propose above what we know
	case !reelect && st.hears(n.self):
		return gen.ShardStatus{}, learned(st)
	}
	if err := n.promise(p, st, epoch); err != nil {
		return gen.ShardStatus{}, err
	}
	st.lastHeard = p.Now() // the candidate gets a window to finish
	return n.status(st), nil
}

// Pull serves a consistent snapshot of the shard to a candidate.
func (n service) Pull(p *sim.Proc, shard int32) (gen.Snapshot, error) {
	st := n.shards[int(shard)]
	if st == nil {
		return gen.Snapshot{}, errNotReplica
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	pairs, err := n.snapshotLocked(p, st)
	if err != nil {
		return gen.Snapshot{}, err
	}
	return gen.Snapshot{Epoch: st.epoch, Seq: st.seq, Pairs: pairs}, nil
}

// Install applies a wholesale shard state push. Two legal shapes: a
// view-change install, which must clear this replica's durable promise
// (an expired candidacy's install bounces off a newer one); and a
// same-epoch resync from the current primary, which fast-forwards a
// lagging backup. Both replace records and meta in one commit.
func (n service) Install(p *sim.Proc, shard int32, epoch int64, primary int32, seq int64, pairs []*gen.Pair) error {
	st := n.shards[int(shard)]
	if st == nil {
		return errNotReplica
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	switch {
	case epoch > st.epoch:
		// View change. Installs below our outstanding promise are an
		// expired candidacy's stragglers and bounce off the fence. At or
		// above the promise they are accepted even if we never promised
		// this epoch (we were down or partitioned during the candidacy):
		// only a candidate whose prepare reached a majority ever sends
		// installs, prepare's strictly-greater promise rule makes that
		// candidate unique per epoch, and applyInstall records the epoch
		// as our new promise floor — so accepting doubles as the promise
		// we missed, and crashed-through-failover replicas can rejoin via
		// plain resync instead of waiting for the next view change.
		if epoch < st.promised {
			return n.fenced()
		}
		if err := n.applyInstall(p, st, epoch, int(primary), seq, pairs); err != nil {
			return err
		}
		st.lastHeard, st.silent = p.Now(), false
		return nil
	case epoch == st.epoch && int(primary) == st.primary:
		// Resync from the current primary. Refuse while a candidacy holds
		// a higher promise — prepare froze this replica's reported state.
		if st.promised > st.epoch {
			return n.fenced()
		}
		st.lastHeard, st.silent = p.Now(), false
		switch {
		case seq < st.seq:
			n.backupAhead.Inc() // as in Replicate: never acked
			return errBackupAhead
		case seq == st.seq:
			return nil // no-op catch-up
		}
		return n.applyInstall(p, st, epoch, int(primary), seq, pairs)
	default:
		return n.stale(st)
	}
}

// String renders the node's shard table for debugging.
func (n *Node) String() string {
	s := fmt.Sprintf("cluster node %d:", n.self)
	for _, id := range n.shardIDs {
		st := n.shards[id]
		s += fmt.Sprintf(" [s%d e%d p%d seq%d]", id, st.epoch, st.primary, st.seq)
	}
	return s
}
