// Package hatkv is the key-value store co-designed with HatRPC and the
// LMDB-like backend (§4.4): the generated HatKV service (Figure 10's IDL)
// served over TRdma, with hint-driven backend tuning — the concurrency
// hint sizes the reader table, and the performance-goal hint selects the
// commit/sync strategy so LMDB interactions stay off the communication
// critical path.
package hatkv

import (
	"errors"
	"slices"

	"hatrpc/internal/engine"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/hints"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

// BackendCosts converts LMDB work into simulated CPU/IO time. The server
// keeps data and the lock file in tmpfs (§5.4), so "sync" is a page-cache
// flush, not a disk fsync.
type BackendCosts struct {
	LookupNs     int64   // B-tree descent + node binary searches
	InsertNs     int64   // leaf update + COW copies
	CopyPerByte  float64 // value copy cost (ns/B)
	CommitSyncNs int64   // commit cost with SyncFull
	CommitMetaNs int64   // commit cost with SyncMeta
	CommitNoNs   int64   // commit cost with NoSync
	BeginTxnNs   int64
}

// DefaultBackendCosts returns tmpfs-calibrated constants.
func DefaultBackendCosts() BackendCosts {
	return BackendCosts{
		LookupNs:     600,
		InsertNs:     1500,
		CopyPerByte:  0.1,
		CommitSyncNs: 4000,
		CommitMetaNs: 1500,
		CommitNoNs:   300,
		BeginTxnNs:   150,
	}
}

// Store is the HatKV server: the generated handler over an LMDB env.
type Store struct {
	node  *simnet.Node
	env   *lmdb.Env
	costs BackendCosts
	// The write queue (group commit, DESIGN.md §12). LMDB has one writer:
	// leading is set while a writer — the leader — holds the write txn,
	// and queue holds the writers parked behind it in arrival order.
	leading bool
	queue   []*parkedOp
	spare   []*parkedOp // records of writers that left park settled, for reuse

	groupOps  *obs.Histogram // ops per commit; nil until SetObs
	writeWait *obs.Histogram // enqueue → a leader picks the op up

	// Crash-recovery accounting (DESIGN.md §12): a Store is durable
	// media — it survives its node's crashes, rolling back to the last
	// fsynced root each time.
	Recoveries int64  // node crashes survived
	LostTxns   uint64 // cumulative committed transactions rolled back
}

var _ kvgen.HatKVHandler = (*Store)(nil)

// NewStore opens the backend on the given node. When sh is non-nil, the
// backend is tuned from the hint table: max readers from the concurrency
// hint, sync mode from the performance goal (throughput/res_util →
// NoSync batch-style commits; latency → meta-only sync).
func NewStore(node *simnet.Node, sh *trdma.ServiceHints, costs *BackendCosts) (*Store, error) {
	opt := lmdb.Options{Sync: lmdb.SyncFull}
	if sh != nil {
		r := hints.TypeCheck(sh.Service.ForSide(hints.SideServer))
		if r.Concurrency > 0 {
			opt.MaxReaders = r.Concurrency + 2
		}
		switch r.Goal {
		case hints.GoalThroughput, hints.GoalResUtil:
			opt.Sync = lmdb.NoSync
		case hints.GoalLatency:
			opt.Sync = lmdb.SyncMeta
		}
	}
	env, err := lmdb.Open(opt)
	if err != nil {
		return nil, err
	}
	c := DefaultBackendCosts()
	if costs != nil {
		c = *costs
	}
	s := &Store{node: node, env: env, costs: c}
	// Durable media survives power loss: arm the crash hook that rolls
	// the backend to its durable root when the node dies.
	s.arm()
	return s, nil
}

// arm registers the crash hook. Crash hooks are cleared each time they
// run (per-boot state like the NIC registers fresh ones on restart);
// the store re-arms itself from inside the hook so it survives every
// subsequent life of the node.
func (s *Store) arm() { s.node.OnCrash(s.crash) }

// crash models what the storage medium experiences at power loss:
// commits beyond the last fsynced meta root vanish, in-flight
// transactions die with their processes, and the env reopens from the
// durable root per the active SyncMode.
func (s *Store) crash() {
	s.LostTxns += s.env.CrashRecover()
	s.Recoveries++
	// Every writer of the crashed boot is dead. A leader killed mid-group
	// handed leadership to a follower that was then killed too, so the
	// "commit in flight" mark and the parked ops must not leak into the
	// next boot: its first writer would queue behind nobody, forever.
	s.leading = false
	s.queue = nil
	s.arm()
}

// SetObs attaches the write-path histograms: hatkv.commit_group_ops (ops
// sharing one write txn and one commit) and hatkv.write_wait_ns (sim time
// a parked writer spent queued before a leader picked its op up; solo
// writers never queue and are not observed). A nil registry detaches.
func (s *Store) SetObs(r *obs.Registry) {
	s.groupOps = r.Histogram("hatkv.commit_group_ops")
	s.writeWait = r.Histogram("hatkv.write_wait_ns")
}

// Env exposes the LMDB environment (for preloading and inspection).
func (s *Store) Env() *lmdb.Env { return s.env }

func (s *Store) charge(p *sim.Proc, ns float64) {
	s.node.CPU.Compute(p, sim.Duration(ns))
}

func (s *Store) commitCharge(p *sim.Proc) {
	switch s.env.Sync() {
	case lmdb.SyncFull:
		s.charge(p, float64(s.costs.CommitSyncNs))
	case lmdb.SyncMeta:
		s.charge(p, float64(s.costs.CommitMetaNs))
	default:
		s.charge(p, float64(s.costs.CommitNoNs))
	}
}

// ErrNotFound is what Get returns for an absent key: the declared KVError
// exception (so the generated processor ships it as one), shared so
// in-process callers can tell "no such key" from a failing backend with
// errors.Is.
var ErrNotFound error = &kvgen.KVError{Message: "hatkv: key not found"}

// Get implements HatKV.Get. A missing key is ErrNotFound; any other error
// means the backend failed and says nothing about the key. The value is
// the stored slice itself — immutable by lmdb.PutOwned's contract, shared
// with every other reader, and so read-only to the caller; the copy a real
// backend would make is still charged to the simulated clock.
func (s *Store) Get(p *sim.Proc, key string) ([]byte, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginRead()
	if err != nil {
		return nil, kvError(err)
	}
	defer txn.Abort()
	v, err := txn.Get([]byte(key))
	s.charge(p, float64(s.costs.LookupNs)+float64(len(v))*s.costs.CopyPerByte)
	if errors.Is(err, lmdb.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, kvError(err)
	}
	return v, nil
}

// Put implements HatKV.Put.
func (s *Store) Put(p *sim.Proc, key string, value []byte) error {
	_, err := s.PutTxn(p, key, value)
	return err
}

// PutTxn is Put returning the id of the committing transaction, for
// callers that must correlate an acknowledgement with the store version
// containing it (the chaos soak's history checker: an acked SyncFull
// write is lost exactly when a later crash rolls back past its txn id).
// Writers that shared a commit group share its id.
func (s *Store) PutTxn(p *sim.Proc, key string, value []byte) (uint64, error) {
	return s.write(p, &writeReq{key: key, value: value})
}

// MultiPut implements HatKV.MultiPut: one write transaction for the
// batch — a single commit amortizes the sync cost (the hint-driven
// "commit strategy" of §4.4). Under SyncFull the write queue extends the
// same amortization across RPCs.
func (s *Store) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error {
	_, err := s.write(p, &writeReq{pairs: pairs, multi: true})
	return err
}

// writeReq is a writer's request as the caller passed it: key/value for
// Put, pairs for MultiPut. Only the writer's own process reads it, so the
// write path leaks none of it and callers may build keys and pair lists
// on their stacks.
type writeReq struct {
	key   string
	value []byte
	pairs []*kvgen.KVPair
	multi bool
}

// parkedOp is a queued writer: its request and, once done, its result.
type parkedOp struct {
	// key, value, key, value, …: copies handed to whoever leads the op
	// (the ones lmdb would have made at Put anyway), one allocation per
	// pair (lmdb.CopyPair).
	owned [][]byte
	txn   uint64 // id of the write txn that committed the op
	err   error
	done  bool        // a leader settled this op; txn/err are final
	wake  *sim.Signal // fired when done, or when handed leadership
	at    sim.Time    // enqueue time
}

// write is the one write path. A writer that finds the store idle leads a
// group of one, exactly as a mutex holder would. A writer that finds a
// commit in flight parks in the queue; the finishing leader wakes the
// queue head as the next leader, and under SyncFull that leader applies
// every op queued by then in one write txn with one synced commit, then
// wakes them all with the shared txn id. In the other sync modes the
// leader takes only its own op: there is no full sync to share (NoSync
// grouping measured −4 % at 128 clients — a 64-op group releases 64
// readers into the PS CPU at once), and under SyncMeta the one commit a
// crash may lose would become a whole group of acked writes.
func (s *Store) write(p *sim.Proc, req *writeReq) (uint64, error) {
	if s.leading {
		return s.park(p, req)
	}
	s.leading = true
	return s.lead(p, req)
}

// park queues an owned copy of req, then waits to be committed by a
// leader or to be woken, at the head of the queue, as the next one. The
// record comes off the store's spare list when it has one, and goes back
// on it once a leader has settled the op: the fire that woke the writer
// was its signal's only one, and lmdb owns the pairs by then. A writer
// killed while parked simply takes its record with it.
func (s *Store) park(p *sim.Proc, req *writeReq) (uint64, error) {
	var q *parkedOp
	if n := len(s.spare); n > 0 {
		q, s.spare[n-1] = s.spare[n-1], nil
		s.spare = s.spare[:n-1]
	} else {
		q = &parkedOp{wake: sim.NewSignal(p.Env())}
	}
	q.at = p.Now()
	if req.multi {
		q.owned = slices.Grow(q.owned, 2*len(req.pairs))
		for _, kv := range req.pairs {
			k, v := lmdb.CopyPair(kv.Key, kv.Value)
			q.owned = append(q.owned, k, v)
		}
	} else {
		k, v := lmdb.CopyPair(req.key, req.value)
		q.owned = append(q.owned, k, v)
	}
	s.queue = append(s.queue, q)
	q.wake.Wait(p)
	if !q.done {
		return s.lead(p, nil)
	}
	txn, err := q.txn, q.err
	clear(q.owned)
	*q = parkedOp{owned: q.owned[:0], wake: q.wake}
	s.spare = append(s.spare, q)
	return txn, err
}

// lead commits one group and hands leadership on. The leader's own op is
// solo (a writer that never queued) or, when solo is nil, the queue head;
// under SyncFull the group is that plus every op queued right now. Ops
// stay queued until their group is settled and the hand-off is deferred,
// so a leader killed mid-group (Node.Crash unwinds it through its defers)
// strands nobody: only its own op dies with it, and the next head leads
// the rest again.
func (s *Store) lead(p *sim.Proc, solo *writeReq) (txn uint64, err error) {
	own := 0 // queue entries that are the leader's own op
	if solo == nil {
		own = 1
	}
	n := own // queue entries in the group
	if s.env.Sync() == lmdb.SyncFull {
		n = len(s.queue)
	}
	settled := false
	defer func() {
		if !settled {
			n = own
		}
		for _, q := range s.queue[own:n] {
			q.txn, q.err, q.done = txn, err, true
			q.wake.Fire()
		}
		if len(s.queue) > n {
			s.queue[n].wake.Fire() // the next leader
		} else {
			s.leading = false
		}
		k := copy(s.queue, s.queue[n:])
		clear(s.queue[k:])
		s.queue = s.queue[:k]
	}()

	for _, q := range s.queue[:n] {
		s.writeWait.Observe(float64(p.Now() - q.at))
	}
	s.groupOps.Observe(float64(1 - own + n))
	txn, err = s.commit(p, solo, s.queue[:n])
	settled = true
	return txn, err
}

// commit applies solo (if any) and then queued, in that (arrival) order,
// in one write txn. Any backend error fails the whole group.
func (s *Store) commit(p *sim.Proc, solo *writeReq, queued []*parkedOp) (uint64, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginWrite()
	if err != nil {
		return 0, kvError(err)
	}
	// A no-op once committed; releases lmdb's writer slot when an apply
	// fails or the leader is killed in one of the charges below.
	defer txn.Abort()
	pairs, bytesIn := 0, 0
	if solo != nil {
		pairs, bytesIn, err = applyBorrowed(txn, solo)
	}
	for _, q := range queued {
		for i := 0; err == nil && i < len(q.owned); i += 2 {
			err = txn.PutOwned(q.owned[i], q.owned[i+1])
			bytesIn += len(q.owned[i+1])
		}
		pairs += len(q.owned) / 2
	}
	if err != nil {
		return 0, kvError(err)
	}
	s.charge(p, float64(pairs)*float64(s.costs.InsertNs)+float64(bytesIn)*s.costs.CopyPerByte)
	if err := txn.Commit(); err != nil {
		return 0, kvError(err)
	}
	s.commitCharge(p)
	return txn.ID(), nil
}

// applyBorrowed puts req's pairs into txn (which copies them) and returns
// how many pairs and value bytes that was.
func applyBorrowed(txn *lmdb.Txn, req *writeReq) (pairs, bytesIn int, err error) {
	if !req.multi {
		return 1, len(req.value), txn.Put([]byte(req.key), req.value)
	}
	for _, kv := range req.pairs {
		if err := txn.Put([]byte(kv.Key), kv.Value); err != nil {
			return 0, 0, err
		}
		bytesIn += len(kv.Value)
	}
	return len(req.pairs), bytesIn, nil
}

// kvError wraps a backend error in the service's declared exception, so
// the generated processor ships it typed.
func kvError(err error) error { return &kvgen.KVError{Message: err.Error()} }

// MultiGet implements HatKV.MultiGet: one snapshot for the whole batch.
// The values are read-only, as Get's is.
func (s *Store) MultiGet(p *sim.Proc, keys []string) ([][]byte, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginRead()
	if err != nil {
		return nil, kvError(err)
	}
	defer txn.Abort()
	out := make([][]byte, 0, len(keys))
	var bytesOut int
	for _, k := range keys {
		v, err := txn.Get([]byte(k))
		if errors.Is(err, lmdb.ErrNotFound) {
			out = append(out, nil)
			continue
		}
		if err != nil {
			return nil, kvError(err)
		}
		out = append(out, v)
		bytesOut += len(v)
	}
	s.charge(p, float64(len(keys))*float64(s.costs.LookupNs)+float64(bytesOut)*s.costs.CopyPerByte)
	return out, nil
}

// Preload inserts n records directly (load phase, no RPC, no simulated
// cost — it happens before the measured run).
func (s *Store) Preload(n int, keyFn func(int) string, value []byte) error {
	txn, err := s.env.BeginWrite()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := txn.Put([]byte(keyFn(i)), value); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// Serve starts the HatKV service over the given engine using the hint
// table sh (HatRPC-Service and HatRPC-Function differ only in sh).
func Serve(eng *engine.Engine, sh *trdma.ServiceHints, store *Store) *trdma.TServerRdma {
	return trdma.NewServer(eng, sh, kvgen.NewHatKVProcessor(store))
}

// ServiceOnlyHints strips the function-level hints from the generated
// table, yielding the paper's "HatRPC-Service" variant.
func ServiceOnlyHints() *trdma.ServiceHints {
	return kvgen.HatKVHints.ServiceOnly(kvgen.HatKVHints.Service)
}

// FunctionHints returns the full generated table ("HatRPC-Function").
func FunctionHints() *trdma.ServiceHints { return kvgen.HatKVHints }
