// Package chaos is the crash–restart soak harness (DESIGN.md §12): it
// drives HatKV through a randomized, seeded crash schedule and audits
// the durability contract of the active sync mode against the acked
// writes. The harness wires every lifecycle layer together — the
// simnet CrashPlan kills and reboots the server node, the verbs device
// dies and is reopened with a new epoch, the engine Session layer
// re-dials and replays interrupted calls, and the hatkv Store rolls the
// backend to its durable root — and the checker then asserts:
//
//	(a) under SyncFull no acknowledged write is ever lost;
//	(b) under NoSync every lost acked write is explained by a crash
//	    that rolled back past its commit, and the total loss is
//	    bounded by the rolled-back commit count (the un-synced window);
//	(c) a run is a pure function of its seed: two same-seed soaks
//	    produce byte-identical reports.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Wire functions of the soak's minimal KV service. FnPut commits
// key→value and answers with the 8-byte commit transaction id — the
// handle the checker later correlates with crash rollbacks. FnGet
// answers with the value or nothing.
const (
	FnPut uint32 = 1
	FnGet uint32 = 2
)

// Port is the soak service's engine port.
const Port = "hatkv-chaos"

// Config parameterizes one soak run. The zero value is filled with
// small defaults; Crash must be a valid simnet.CrashConfig for any
// crashing to happen.
type Config struct {
	Seed            int64
	Sync            lmdb.SyncMode
	Workers         int
	WritesPerWorker int
	// WritePaceNs idles each worker between writes so the workload spans
	// the crash schedule instead of racing ahead of it.
	WritePaceNs int64
	Crash       simnet.CrashConfig
}

// Crash is one executed crash as the harness observed it: when it hit,
// the transaction id the store recovered to, and how many committed
// transactions that rollback destroyed.
type Crash struct {
	At           sim.Time
	RolledBackTo uint64
	LostTxns     uint64
}

// Write is one acknowledged write: the commit txn id the server
// answered with and the virtual time the ack reached the worker. Lost
// is filled by the audit.
type Write struct {
	Key   string
	Txn   uint64
	AckAt sim.Time
	Lost  bool
}

// Result is the audited outcome of a soak run.
type Result struct {
	Crashes []Crash
	Writes  []Write

	Acked       int // every write is retried until acked, so this is the write count
	Lost        int // acked writes absent from the surviving store
	Unexplained int // lost writes no crash accounts for — always a bug
	// BoundViolated: more acked writes were lost than committed
	// transactions were rolled back — always a bug.
	BoundViolated bool
	GetChecks     int
	GetMismatches int // read-backs returning wrong bytes — always a bug
	FailedCalls   int64

	SessionFailovers int64 // engine.session_failovers: reconnects after an outage
	SessionReplays   int64 // engine.replays: calls replayed across a reconnect

	StoreRecoveries int64
	StoreLostTxns   uint64
	FinalTxn        uint64
	FinalEntries    int64
	Incomplete      int // workers still unfinished when the watchdog fired
}

// Soak runs one chaos soak to completion and audits it.
func Soak(cfg Config) *Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.WritesPerWorker <= 0 {
		cfg.WritesPerWorker = 50
	}
	env := sim.NewEnv(cfg.Seed)
	fabric := simnet.DefaultConfig()
	fabric.Nodes = 2
	cl := simnet.NewCluster(env, fabric)
	server := cl.Node(0)

	store, err := hatkv.NewStore(server, nil, nil)
	if err != nil {
		panic("chaos: " + err.Error()) // nil hints cannot fail
	}
	if err := store.Env().SetSync(cfg.Sync); err != nil {
		panic("chaos: " + err.Error())
	}

	res := &Result{}
	// The crash log is durable harness state: registered after the store
	// was created, so the store's own hook has already rolled the backend
	// back by the time this one reads it; re-arms itself like the store.
	var seenLost uint64
	var logCrash func()
	logCrash = func() {
		res.Crashes = append(res.Crashes, Crash{
			At:           env.Now(),
			RolledBackTo: store.Env().TxnID(),
			LostTxns:     store.LostTxns - seenLost,
		})
		seenLost = store.LostTxns
		server.OnCrash(logCrash)
	}
	server.OnCrash(logCrash)

	ecfg := node.EngineConfig()
	handler := func(p *sim.Proc, fn uint32, req []byte) []byte {
		switch fn {
		case FnPut:
			txn, err := store.PutTxn(p, string(req), req)
			if err != nil {
				return nil
			}
			var out [8]byte
			binary.BigEndian.PutUint64(out[:], txn)
			return out[:]
		case FnGet:
			v, err := store.Get(p, string(req))
			if err != nil {
				return nil
			}
			return v
		}
		return nil
	}
	// Each boot of the server node builds a fresh engine and server over
	// the one durable store; the crashed boot's engine dies with its
	// device and processes.
	boot := func() { engine.New(server, ecfg).Serve(Port, handler) }
	boot()
	server.SetRestart(func(p *sim.Proc) { boot() })
	cl.InstallCrashes(cfg.Crash)

	cliEng := engine.New(cl.Node(1), ecfg)
	reg := obs.NewRegistry() // the session counters; obs does not move the clock
	cliEng.SetObs(reg)
	opts := engine.CallOpts{Proto: engine.EagerSendRecv}
	done := 0
	for w := 0; w < cfg.Workers; w++ {
		w := w
		env.Spawn(fmt.Sprintf("chaos-worker-%d", w), func(p *sim.Proc) {
			s := cliEng.OpenSession(server, Port, false)
			for i := 0; i < cfg.WritesPerWorker; i++ {
				key := fmt.Sprintf("w%02d-%05d", w, i)
				for {
					resp, err := s.Call(p, FnPut, []byte(key), opts)
					if err == nil && len(resp) == 8 {
						res.Writes = append(res.Writes, Write{
							Key: key, Txn: binary.BigEndian.Uint64(resp), AckAt: p.Now(),
						})
						break
					}
					res.FailedCalls++
					p.Sleep(250_000) // outage or overload; back off and re-ack
				}
				if i%5 == 4 {
					// Read-back: a non-empty answer must be the exact bytes
					// written (a rolled-back key answering empty is legal).
					res.GetChecks++
					v, err := s.Call(p, FnGet, []byte(key), opts)
					if err == nil && len(v) > 0 && !bytes.Equal(v, []byte(key)) {
						res.GetMismatches++
					}
				}
				if cfg.WritePaceNs > 0 {
					p.Sleep(sim.Duration(cfg.WritePaceNs))
				}
			}
			done++
			if done == cfg.Workers {
				env.Stop()
			}
		})
	}
	if cfg.Crash.HorizonNs > 0 {
		// Watchdog: a soak must terminate even if a worker wedges; the
		// audit then reports the unfinished workers.
		env.At(sim.Time(4*cfg.Crash.HorizonNs), env.Stop)
	}
	env.Run()

	res.Incomplete = cfg.Workers - done
	res.SessionFailovers = reg.Counter("engine.session_failovers").Value()
	res.SessionReplays = reg.Counter("engine.replays").Value()
	audit(res, store)
	return res
}

// ackSlackNs absorbs ack propagation when attributing a loss to a
// crash: the commit happens strictly before the ack arrives, so a crash
// landing in that sub-window has At slightly below AckAt.
const ackSlackNs = 100_000

// audit fills the loss accounting by comparing every acked write
// against the surviving store state.
func audit(res *Result, store *hatkv.Store) {
	res.StoreRecoveries = store.Recoveries
	res.StoreLostTxns = store.LostTxns
	res.FinalTxn = store.Env().TxnID()
	res.FinalEntries = store.Env().Entries()
	r, err := store.Env().BeginRead()
	if err != nil {
		res.Unexplained = len(res.Writes)
		return
	}
	defer r.Abort()
	for i := range res.Writes {
		w := &res.Writes[i]
		res.Acked++
		if _, err := r.Get([]byte(w.Key)); err == nil {
			continue
		}
		w.Lost = true
		res.Lost++
		explained := false
		for _, c := range res.Crashes {
			if int64(c.At) >= int64(w.AckAt)-ackSlackNs && c.RolledBackTo < w.Txn {
				explained = true
				break
			}
		}
		if !explained {
			res.Unexplained++
		}
	}
	// Every lost acked write consumed one distinct rolled-back commit.
	res.BoundViolated = uint64(res.Lost) > res.StoreLostTxns
}

// Report renders the full audited outcome deterministically — two
// same-seed soaks must produce byte-identical reports. The (large)
// write log is folded into an FNV-1a digest.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: acked=%d lost=%d unexplained=%d bound_violated=%v\n",
		r.Acked, r.Lost, r.Unexplained, r.BoundViolated)
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_calls=%d incomplete=%d\n",
		r.GetChecks, r.GetMismatches, r.FailedCalls, r.Incomplete)
	fmt.Fprintf(&b, "sessions: failovers=%d replays=%d\n", r.SessionFailovers, r.SessionReplays)
	fmt.Fprintf(&b, "store: recoveries=%d lost_txns=%d final_txn=%d entries=%d\n",
		r.StoreRecoveries, r.StoreLostTxns, r.FinalTxn, r.FinalEntries)
	fmt.Fprintf(&b, "crashes: %d\n", len(r.Crashes))
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  at=%d rolled_back_to=%d lost=%d\n", c.At, c.RolledBackTo, c.LostTxns)
	}
	h := fnv.New64a()
	for _, w := range r.Writes {
		fmt.Fprintf(h, "%s|%d|%d|%v\n", w.Key, w.Txn, w.AckAt, w.Lost)
	}
	fmt.Fprintf(&b, "writes_digest=%016x\n", h.Sum64())
	return b.String()
}
