package cluster

import (
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
// its peer, come from the hints of cluster.hrpc through trdma; every call
// is bounded by the embedder's deadline. Client and Node both embed it.
type peerSessions struct {
	eng      *engine.Engine
	roster   []*simnet.Node               // cluster server nodes, by index
	deadline func(fn string) sim.Duration // bounds each call, by verb

	sess    []*engine.Session    // by roster index
	clients []*gen.ClusterClient // the embedder's calling process's, by roster index (peer)
}

func newPeerSessions(eng *engine.Engine, roster []*simnet.Node, deadline func(fn string) sim.Duration) peerSessions {
	return peerSessions{
		eng:      eng,
		roster:   roster,
		deadline: deadline,
		sess:     make([]*engine.Session, len(roster)),
		clients:  make([]*gen.ClusterClient, len(roster)),
	}
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

// client returns a new generated client over the session to peer. A client
// carries one call at a time, so every process that calls a peer holds a
// client of its own.
func (ps *peerSessions) client(peer int) *gen.ClusterClient {
	return gen.NewClusterClient(trdma.NewSessionTransport(ps.session(peer), gen.ClusterHints, ps.eng.Cores(), ps.deadline))
}

// peer returns the client of peer that the embedder's one calling process
// uses (a Client's caller, a Node's monitor), made on first use.
func (ps *peerSessions) peer(i int) *gen.ClusterClient {
	if ps.clients[i] == nil {
		ps.clients[i] = ps.client(i)
	}
	return ps.clients[i]
}

// closeSessions closes the open sessions in roster order.
func (ps *peerSessions) closeSessions() {
	for i, s := range ps.sess {
		if s != nil {
			s.Close()
			ps.sess[i] = nil
		}
	}
}
