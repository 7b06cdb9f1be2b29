// Package hatkv is the key-value store co-designed with HatRPC and the
// LMDB-like backend (§4.4): the generated HatKV service (Figure 10's IDL)
// served over TRdma, with hint-driven backend tuning — the concurrency
// hint sizes the reader table, and the performance-goal hint selects the
// commit/sync strategy so LMDB interactions stay off the communication
// critical path.
package hatkv

import (
	"bytes"
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
	syncing []*parkedOp // a leader's group while it syncs; kept for the next one
	// A leader's pairs in arrival order, and their indices sorted by key
	// (absorb); both kept for the next group.
	pairs []groupPair
	order []int

	// The log (DESIGN.md §12 "The log"): pairs Append made durable that
	// the applier has not yet moved into the tree — key, value, key,
	// value, … in append order, each pair one allocation that the tree
	// then keeps (PutOwned). appended and applied count the pairs of this
	// boot; kick wakes the applier (nil until the boot's first Append) and
	// settled tells Settle callers that a batch of the applier ended, with
	// applyErr its outcome.
	log      [][]byte
	appended uint64
	applied  uint64
	applyErr error
	kick     *sim.Signal
	settled  *sim.Signal

	groupOps  *obs.Histogram // ops per commit; nil until SetObs
	writeWait *obs.Histogram // enqueue → a leader picks the op up
	absorbed  *obs.Counter   // pairs a later op of their group overwrote

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
// NoSync; latency → meta-only sync). Every mode group-commits the same
// way; the mode sets only what a leader syncs after handing the writer on.
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
// durable root per the active SyncMode. Then the log's unapplied pairs are
// replayed into the tree, outside simulated time as the reopen is.
func (s *Store) crash() {
	s.LostTxns += s.env.CrashRecover()
	s.Recoveries++
	// Every writer of the crashed boot is dead. A leader killed mid-group
	// handed leadership to a follower that was then killed too, so the
	// "commit in flight" mark and the parked ops must not leak into the
	// next boot: its first writer would queue behind nobody, forever.
	s.leading = false
	s.queue = nil
	s.replay()
	s.arm()
}

// replay applies what survives of the log to the tree in one synced
// commit and empties it. Under SyncFull every appended pair survives: its
// append was a synced write. Under SyncMeta and NoSync an unapplied pair is
// an unsynced commit, and is lost as one is. The applier died with the
// boot; the next boot's first Append starts a new one.
func (s *Store) replay() {
	if len(s.log) > 0 && s.env.Sync() == lmdb.SyncFull {
		txn, err := s.env.BeginWrite()
		for i := 0; err == nil && i < len(s.log); i += 2 {
			err = txn.PutOwned(s.log[i], s.log[i+1])
		}
		if err == nil {
			err = txn.Commit()
		}
		if err != nil {
			// The env was reopened a moment ago: only a closed one refuses.
			panic("hatkv: replaying the log after a crash: " + err.Error())
		}
	}
	clear(s.log)
	s.log = s.log[:0]
	s.appended, s.applied, s.applyErr = 0, 0, nil
	s.kick, s.settled = nil, nil
}

// SetObs attaches the write-path instruments: hatkv.commit_group_ops (ops
// sharing one write txn and one commit), hatkv.write_wait_ns (sim time a
// parked writer spent queued before a leader picked its op up; solo
// writers never queue and are not observed) and hatkv.absorbed_pairs
// (pairs never applied because a later pair of their group wrote the same
// key). A nil registry detaches.
func (s *Store) SetObs(r *obs.Registry) {
	s.groupOps = r.Histogram("hatkv.commit_group_ops")
	s.writeWait = r.Histogram("hatkv.write_wait_ns")
	s.absorbed = r.Counter("hatkv.absorbed_pairs")
}

// Env exposes the LMDB environment (for preloading and inspection).
func (s *Store) Env() *lmdb.Env { return s.env }

func (s *Store) charge(p *sim.Proc, ns float64) {
	s.node.CPU.Compute(p, sim.Duration(ns))
}

// commitNs is what the sync mode's commit costs: a NoSync commit and its
// sync.
func (s *Store) commitNs() int64 { return s.costs.CommitNoNs + s.syncNs() }

// syncNs is what the sync mode's commit costs beyond a NoSync one: the
// sync a leader pays after it has handed the writer on.
func (s *Store) syncNs() int64 {
	switch s.env.Sync() {
	case lmdb.SyncFull:
		return s.costs.CommitSyncNs - s.costs.CommitNoNs
	case lmdb.SyncMeta:
		return s.costs.CommitMetaNs - s.costs.CommitNoNs
	}
	return 0
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
	k, v := lmdb.CopyPair(key, value)
	return s.PutOwned(p, k, v)
}

// PutOwned is PutTxn for a pair handed over as lmdb.PutOwned takes one:
// the store keeps k and v, never to be modified again, charging as Put.
func (s *Store) PutOwned(p *sim.Proc, k, v []byte) (uint64, error) {
	pair := [2][]byte{k, v}
	return s.write(p, &writeReq{owned: pair[:]})
}

// MultiPut implements HatKV.MultiPut: one write transaction for the
// batch — a single commit amortizes the sync cost (the hint-driven
// "commit strategy" of §4.4). The write queue extends the same
// amortization across RPCs.
func (s *Store) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error {
	_, err := s.write(p, &writeReq{pairs: pairs})
	return err
}

// Append makes k=v durable in the store's log and returns: the caller
// waits for the log write alone — the value's copy and the sync mode's
// commit, which under SyncFull is the synced write a Put pays without its
// BeginTxnNs and InsertNs. The log, then the tree, keep k and v themselves
// (lmdb.PutOwned's contract). The store's applier moves the pair into the
// tree later, through the write path. Until then Get does not see it;
// Settle waits for it. A caller that also Puts or MultiPuts a key it
// appends must Settle in between, or the applier may overwrite the newer
// pair with the logged one. A crash while the append is being charged
// leaves nothing; after it, the pair fares as the mode's commit would
// (replay).
func (s *Store) Append(p *sim.Proc, k, v []byte) {
	s.charge(p, float64(len(v))*s.costs.CopyPerByte+float64(s.commitNs()))
	s.log = append(s.log, k, v)
	s.appended++
	switch {
	case s.kick == nil:
		s.startApplier(p.Env())
	case s.kick.Waiting() > 0:
		s.kick.Fire()
	}
}

// Settle waits until every pair appended before the call is in the tree,
// or returns the error of the applier's batch that failed to put it there
// (the tree refused a write transaction; a later Settle retries).
func (s *Store) Settle(p *sim.Proc) error {
	for target := s.appended; s.applied < target; {
		if s.kick.Waiting() > 0 {
			s.kick.Fire() // a batch that failed waits for a retry
		}
		s.settled.Wait(p)
		if s.applyErr != nil {
			return s.applyErr
		}
	}
	return nil
}

// Logged returns the pairs appended and not yet applied — key, value, key,
// value, … in append order — for audits, which read the store as a cold
// restart would recover it: a logged pair supersedes the tree's record of
// its key and every earlier logged pair of it. The slices are read-only,
// and valid until the store's next write.
func (s *Store) Logged() [][]byte { return s.log }

// startApplier spawns the boot's applier: a node-owned process that puts
// the whole log into the tree as one writer of the write path (group
// commit, absorption, the log's copies kept as the tree's), drops what it
// applied, and waits for the next Append when the log is empty. A batch
// the tree refuses stays logged until the next Append or Settle.
func (s *Store) startApplier(env *sim.Env) {
	s.kick, s.settled = sim.NewSignal(env), sim.NewSignal(env)
	s.node.Spawn("hatkv-applier", func(p *sim.Proc) {
		for {
			for len(s.log) > 0 {
				n := len(s.log)
				_, s.applyErr = s.write(p, &writeReq{owned: s.log[:n:n]})
				if s.applyErr == nil {
					k := copy(s.log, s.log[n:])
					clear(s.log[k:])
					s.log = s.log[:k]
					s.applied += uint64(n / 2)
				}
				s.settled.Broadcast()
				if s.applyErr != nil {
					break
				}
			}
			s.kick.Wait(p)
		}
	})
}

// writeReq is a writer's request as the caller passed it: pairs for
// MultiPut, owned for a Put's pair or the applier's batch of the log.
// Only the writer's own process reads it, so the write path leaks none of
// it and callers may build pair lists on their stacks.
type writeReq struct {
	pairs []*kvgen.KVPair
	owned [][]byte // key, value, …: copies the store already owns
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

// write is the one write path, the same in every sync mode. A writer
// that finds the store idle leads a group of one, exactly as a mutex
// holder would. A writer that finds a commit in flight parks in the
// queue. A leader commits every op queued when it starts in one write txn,
// wakes the queue head as the next leader at once, and only then syncs
// and wakes its group with the shared txn id — so the next group's inserts
// overlap this group's sync instead of waiting behind it.
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
// on it once the op is settled — by a leader, or by leading it: the fire
// that woke the writer was its signal's only one, and lmdb owns the pairs
// by then. A writer killed while parked or leading simply takes its
// record with it.
func (s *Store) park(p *sim.Proc, req *writeReq) (uint64, error) {
	var q *parkedOp
	if n := len(s.spare); n > 0 {
		q, s.spare[n-1] = s.spare[n-1], nil
		s.spare = s.spare[:n-1]
	} else {
		q = &parkedOp{wake: sim.NewSignal(p.Env())}
	}
	q.at = p.Now()
	q.owned = append(q.owned, req.owned...)
	q.owned = slices.Grow(q.owned, 2*len(req.pairs))
	for _, kv := range req.pairs {
		k, v := lmdb.CopyPair(kv.Key, kv.Value)
		q.owned = append(q.owned, k, v)
	}
	s.queue = append(s.queue, q)
	q.wake.Wait(p)
	txn, err := q.txn, q.err
	if !q.done {
		txn, err = s.lead(p, nil)
	}
	clear(q.owned)
	*q = parkedOp{owned: q.owned[:0], wake: q.wake}
	s.spare = append(s.spare, q)
	return txn, err
}

// lead commits one group, hands the writer on, then syncs and acks the
// group. The leader's own op is solo (a writer that never queued) or, when
// solo is nil, the queue head; the group is that plus every op queued right
// now. Ops stay queued until their group has committed, so a leader
// killed in the inserts (Node.Crash unwinds it through its defers)
// strands nobody: its deferred hand-off drops only its own op, and the
// next head leads the rest again. A leader killed in the sync has already
// committed and handed on, so its deferred settle acks the group.
func (s *Store) lead(p *sim.Proc, solo *writeReq) (txn uint64, err error) {
	own := 0 // queue entries that are the leader's own op
	if solo == nil {
		own = 1
	}
	n := len(s.queue) // queue entries in the group
	var group []*parkedOp
	committed := false
	defer func() {
		if !committed {
			s.handOff(own)
			return
		}
		for _, q := range group {
			q.txn, q.err, q.done = txn, err, true
			q.wake.Fire()
		}
		clear(group)
		s.syncing = group[:0]
	}()

	for _, q := range s.queue {
		s.writeWait.Observe(float64(p.Now() - q.at))
	}
	s.groupOps.Observe(float64(1 - own + n))
	txn, err = s.commit(p, solo, s.queue[:n])
	group = append(s.syncing, s.queue[own:n]...)
	s.syncing = nil
	committed = true
	s.handOff(n)
	if ns := s.syncNs(); err == nil && ns > 0 {
		s.charge(p, float64(ns))
	}
	return txn, err
}

// handOff drops the first n queue entries and wakes the new head as the
// next leader, or marks the store idle when nobody is queued.
func (s *Store) handOff(n int) {
	if len(s.queue) > n {
		s.queue[n].wake.Fire()
	} else {
		s.leading = false
	}
	k := copy(s.queue, s.queue[n:])
	clear(s.queue[k:])
	s.queue = s.queue[:k]
}

// commit applies solo (if any) and then queued, in that (arrival) order,
// in one write txn, charging the begin, the inserts and a NoSync commit.
// Only the last pair the group writes to a key is applied and charged; the
// others would be overwritten inside this txn before anyone could read
// them. Any backend error fails the whole group.
func (s *Store) commit(p *sim.Proc, solo *writeReq, queued []*parkedOp) (uint64, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginWrite()
	if err != nil {
		return 0, kvError(err)
	}
	// A no-op once committed; releases lmdb's writer slot when an apply
	// fails or the leader is killed in one of the charges below.
	defer txn.Abort()
	pairs, bytesIn, err := s.applyGroup(txn, solo, queued)
	if err != nil {
		return 0, kvError(err)
	}
	s.charge(p, float64(pairs)*float64(s.costs.InsertNs)+float64(bytesIn)*s.costs.CopyPerByte)
	s.charge(p, float64(s.costs.CommitNoNs))
	if err := txn.Commit(); err != nil {
		return 0, kvError(err)
	}
	return txn.ID(), nil
}

// groupPair is one pair of a commit group, owned by the store (a parked
// op's copy, or the copy Put would have made of a solo MultiPut's pair).
type groupPair struct {
	k, v       []byte
	superseded bool // a later pair of the group writes k
}

// applyGroup puts the group's pairs into txn in arrival order, skipping
// the superseded ones, and returns how many pairs and value bytes it
// applied. A solo op is never grouped with queued ones (a writer leads
// solo only when nobody is queued), so the pairs are one Put's or
// MultiPut's, the applier's batch, or the queued ops' copies.
func (s *Store) applyGroup(txn *lmdb.Txn, solo *writeReq, queued []*parkedOp) (pairs, bytesIn int, err error) {
	g := s.pairs[:0]
	if solo != nil {
		for _, kv := range solo.pairs {
			k, v := lmdb.CopyPair(kv.Key, kv.Value)
			g = append(g, groupPair{k: k, v: v})
		}
		for i := 0; i < len(solo.owned); i += 2 {
			g = append(g, groupPair{k: solo.owned[i], v: solo.owned[i+1]})
		}
	}
	for _, q := range queued {
		for i := 0; i < len(q.owned); i += 2 {
			g = append(g, groupPair{k: q.owned[i], v: q.owned[i+1]})
		}
	}
	if len(g) > 1 {
		s.absorb(g)
	}
	for i := 0; err == nil && i < len(g); i++ {
		if !g[i].superseded {
			err = txn.PutOwned(g[i].k, g[i].v)
			pairs++
			bytesIn += len(g[i].v)
		}
	}
	clear(g)
	s.pairs = g[:0]
	return pairs, bytesIn, err
}

// absorb marks every pair of g that a later pair of g overwrites: a stable
// sort of g's indices by key keeps each key's pairs in arrival order, so
// all but the last of each equal-key run are superseded.
func (s *Store) absorb(g []groupPair) {
	order := s.order[:0]
	for i := range g {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(g[a].k, g[b].k) })
	for j := 1; j < len(order); j++ {
		if bytes.Equal(g[order[j-1]].k, g[order[j]].k) {
			g[order[j-1]].superseded = true
			s.absorbed.Inc()
		}
	}
	s.order = order
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
