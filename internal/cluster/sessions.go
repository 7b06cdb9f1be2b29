package cluster

import (
	"sort"

	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// The cluster service's hint table (DESIGN.md §3), the hand-written twin
// of a generated ServiceHints: one service-level set every verb inherits
// and one function-level set per wire function, resolved client-side into
// a per-function engine plan when a peerSessions is built. The server
// side follows through the handshake: a session whose plans poll busily
// is busy-dispatched by its peer.
//
//   - the service default is resource-frugal: a verb nobody tuned must not
//     spin a core;
//   - the data verbs sit on every put's and get's blocking path, so they
//     buy latency (Direct-WriteIMM, busy waits on both sides — no 4 µs
//     interrupt wake per hop, and a 16 KB value is one WRITE instead of
//     four eager fragments);
//   - the liveness/routing verbs are small and mostly wait out deadlines
//     on dead peers: eager, event-polled, so an idle monitor never spins;
//   - the snapshot verbs move whole shards: throughput goal with no size
//     promise, i.e. the hybrid eager/rendezvous switch on the actual size.
var (
	serviceHints = hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "res_util"}, nil, nil)

	latencyVerb  = hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "latency"}, nil, nil)
	controlVerb  = hints.MakeSet(map[hints.Key]string{hints.KeyPayloadSize: "256"}, nil, nil)
	snapshotVerb = hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: "throughput"}, nil, nil)

	fnHints = [nFns]*hints.Set{
		FnShardMap - fnBase:    controlVerb,
		FnClusterPut - fnBase:  latencyVerb,
		FnClusterGet - fnBase:  latencyVerb,
		FnReplicate - fnBase:   latencyVerb,
		FnShardStatus - fnBase: controlVerb,
		FnShardPull - fnBase:   snapshotVerb,
		FnInstall - fnBase:     snapshotVerb,
	}
)

// peerSessions is the cluster tier's one way of calling a cluster node:
// a cache of one engine.Session per peer (opened on first use; the
// session dials lazily and survives peer restarts by re-dialing and
// replaying) and the per-function call plans resolved once from the hint
// table above. Every cluster verb is safe to replay on a fresh
// connection, as a Session requires: appends are seq-checked, installs
// and promises epoch-fenced. Client and Node both embed it.
type peerSessions struct {
	eng    *engine.Engine
	roster []*simnet.Node // cluster server nodes, by index

	sess  map[int]*engine.Session // peer index → session
	plans [nFns]engine.CallOpts   // fn - fnBase → resolved client-side plan
	// busy is what every session declares to its peer's server: true when
	// any verb's plan polls busily (trdma.NewServer's rule, from the
	// dialer's side), so the peer busy-dispatches the connection too.
	busy bool
}

func newPeerSessions(eng *engine.Engine, roster []*simnet.Node) peerSessions {
	ps := peerSessions{
		eng:    eng,
		roster: roster,
		sess:   make(map[int]*engine.Session),
	}
	for i, fn := range fnHints {
		r := hints.TypeCheck(hints.Resolve(serviceHints, fn, hints.SideClient))
		pl := engine.SelectPlan(r, eng.Cores(), r.PayloadSize, engine.DefaultRndvThreshold)
		ps.plans[i] = engine.CallOpts{Proto: pl.Proto, Busy: pl.Busy}
		ps.busy = ps.busy || pl.Busy
	}
	return ps
}

// callPeerDL performs one RPC to a cluster node over its cached session
// under fn's plan, bounded by deadlineNs. The cache is never locked: a
// session opens without blocking, and dialing a dead peer happens inside
// that peer's own session, where only calls to the same peer queue.
func (ps *peerSessions) callPeerDL(p *sim.Proc, peer int, fn uint32, req []byte, deadlineNs int64) ([]byte, error) {
	s := ps.sess[peer]
	if s == nil {
		s = ps.eng.OpenSession(ps.roster[peer], Port, ps.busy)
		ps.sess[peer] = s
	}
	opts := ps.plans[fn-fnBase]
	opts.Deadline = sim.Duration(deadlineNs)
	return s.Call(p, fn, req, opts)
}

// recycle hands a reply callPeerDL returned from peer back to the
// node's arena (engine.Session.Recycle), once the caller has decoded
// what it needs from it. A reply whose bytes the caller keeps is never
// recycled. A graceful stop may have closed the sessions while the call
// ran; the reply is then left to the collector.
func (ps *peerSessions) recycle(peer int, b []byte) {
	if s := ps.sess[peer]; s != nil {
		s.Recycle(b)
	}
}

// closeSessions closes the cached sessions in deterministic
// (sorted-peer) order.
func (ps *peerSessions) closeSessions() {
	peers := make([]int, 0, len(ps.sess))
	for peer := range ps.sess {
		peers = append(peers, peer)
	}
	sort.Ints(peers)
	for _, peer := range peers {
		ps.sess[peer].Close()
	}
	ps.sess = make(map[int]*engine.Session)
}
