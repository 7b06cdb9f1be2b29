// Package hatkv is the key-value store co-designed with HatRPC and the
// LMDB-like backend (§4.4): the generated HatKV service (Figure 10's IDL)
// served over TRdma, with hint-driven backend tuning — the concurrency
// hint sizes the reader table, and the performance-goal hint selects the
// commit/sync strategy so LMDB interactions stay off the communication
// critical path.
package hatkv

import (
	"errors"

	"hatrpc/internal/engine"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/hints"
	"hatrpc/internal/lmdb"
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
	// writeMu serializes write transactions (LMDB's single writer).
	writeMu *sim.Mutex
	// Tuned records whether hint-driven backend tuning was applied.
	Tuned bool

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
	tuned := false
	if sh != nil {
		r := hints.TypeCheck(sh.Service.ForSide(hints.SideServer))
		if r.Concurrency > 0 {
			opt.MaxReaders = r.Concurrency + 2
			tuned = true
		}
		switch r.Goal {
		case hints.GoalThroughput, hints.GoalResUtil:
			opt.Sync = lmdb.NoSync
			tuned = true
		case hints.GoalLatency:
			opt.Sync = lmdb.SyncMeta
			tuned = true
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
	s := &Store{
		node:    node,
		env:     env,
		costs:   c,
		writeMu: sim.NewMutex(node.Cluster().Env()),
		Tuned:   tuned,
	}
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
	// Killed dispatchers ran their deferred Unlocks, but recreate the
	// mutex anyway so no waiter from the previous life leaks into the
	// next boot's serialization.
	s.writeMu = sim.NewMutex(s.node.Cluster().Env())
	s.arm()
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
// means the backend failed and says nothing about the key.
func (s *Store) Get(p *sim.Proc, key string) ([]byte, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginRead()
	if err != nil {
		return nil, &kvgen.KVError{Message: err.Error()}
	}
	defer txn.Abort()
	v, err := txn.Get([]byte(key))
	s.charge(p, float64(s.costs.LookupNs)+float64(len(v))*s.costs.CopyPerByte)
	if errors.Is(err, lmdb.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, &kvgen.KVError{Message: err.Error()}
	}
	return append([]byte(nil), v...), nil
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
func (s *Store) PutTxn(p *sim.Proc, key string, value []byte) (uint64, error) {
	s.writeMu.Lock(p)
	defer s.writeMu.Unlock()
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginWrite()
	if err != nil {
		return 0, &kvgen.KVError{Message: err.Error()}
	}
	if err := txn.Put([]byte(key), value); err != nil {
		txn.Abort()
		return 0, &kvgen.KVError{Message: err.Error()}
	}
	s.charge(p, float64(s.costs.InsertNs)+float64(len(value))*s.costs.CopyPerByte)
	if err := txn.Commit(); err != nil {
		return 0, &kvgen.KVError{Message: err.Error()}
	}
	s.commitCharge(p)
	return txn.ID(), nil
}

// MultiGet implements HatKV.MultiGet: one snapshot for the whole batch.
func (s *Store) MultiGet(p *sim.Proc, keys []string) ([][]byte, error) {
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginRead()
	if err != nil {
		return nil, err
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
			return nil, err
		}
		out = append(out, append([]byte(nil), v...))
		bytesOut += len(v)
	}
	s.charge(p, float64(len(keys))*float64(s.costs.LookupNs)+float64(bytesOut)*s.costs.CopyPerByte)
	return out, nil
}

// MultiPut implements HatKV.MultiPut: one write transaction for the
// batch — a single commit amortizes the sync cost (the hint-driven
// "commit strategy" of §4.4).
func (s *Store) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error {
	s.writeMu.Lock(p)
	defer s.writeMu.Unlock()
	s.charge(p, float64(s.costs.BeginTxnNs))
	txn, err := s.env.BeginWrite()
	if err != nil {
		return err
	}
	var bytesIn int
	for _, kv := range pairs {
		if err := txn.Put([]byte(kv.Key), kv.Value); err != nil {
			txn.Abort()
			return err
		}
		bytesIn += len(kv.Value)
	}
	s.charge(p, float64(len(pairs))*float64(s.costs.InsertNs)+float64(bytesIn)*s.costs.CopyPerByte)
	if err := txn.Commit(); err != nil {
		return err
	}
	s.commitCharge(p)
	return nil
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
	full := kvgen.HatKVHints
	fns := make(map[string]*hints.Set, len(full.Functions))
	for name := range full.Functions {
		fns[name] = hints.NewSet()
	}
	return &trdma.ServiceHints{
		ServiceName: full.ServiceName,
		Service:     full.Service,
		Functions:   fns,
		FnIDs:       full.FnIDs,
		Oneway:      full.Oneway,
	}
}

// FunctionHints returns the full generated table ("HatRPC-Function").
func FunctionHints() *trdma.ServiceHints { return kvgen.HatKVHints }
