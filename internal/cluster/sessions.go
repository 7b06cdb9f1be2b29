package cluster

import (
	"sort"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

// peerSessions is the cluster tier's one way of calling a cluster node: a
// cache of one engine.Session per peer (opened on first use; the session
// dials lazily and survives peer restarts by re-dialing and replaying),
// which every process calling that peer shares through a generated client
// of its own. Each verb's plan, and the polling every session declares to
// its peer, come from the hints of cluster.hrpc through trdma. Client and
// Node both embed it.
type peerSessions struct {
	eng    *engine.Engine
	roster []*simnet.Node // cluster server nodes, by index

	sess map[int]*engine.Session // peer index → session
}

func newPeerSessions(eng *engine.Engine, roster []*simnet.Node) peerSessions {
	return peerSessions{eng: eng, roster: roster, sess: make(map[int]*engine.Session)}
}

// session returns the session to peer, opening it on first use. The cache
// is never locked: a session opens without blocking, and dialing a dead
// peer happens inside that peer's own session, where only calls to the
// same peer queue.
func (ps *peerSessions) session(peer int) *engine.Session {
	s := ps.sess[peer]
	if s == nil {
		s = trdma.OpenSession(ps.eng, ps.roster[peer], Port, gen.ClusterHints)
		ps.sess[peer] = s
	}
	return s
}

// client returns a generated client over the session to peer, each call
// bounded by deadline(fn). A client carries one call at a time, so every
// process that calls a peer holds a client of its own.
func (ps *peerSessions) client(peer int, deadline func(fn string) sim.Duration) *gen.ClusterClient {
	return gen.NewClusterClient(trdma.NewSessionTransport(ps.session(peer), gen.ClusterHints, ps.eng.Cores(), deadline))
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
