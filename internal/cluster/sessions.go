package cluster

import (
	"sort"

	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// peerSessions is the cluster tier's one way of calling a cluster node:
// a cache of one engine.Session per peer (created on first use; the
// session itself survives peer restarts by re-dialing) and the call
// options every cluster RPC shares. Client and Node both embed it, so
// this is the single place the tier pins its protocol.
type peerSessions struct {
	eng    *engine.Engine
	roster []*simnet.Node // cluster server nodes, by index

	smu  *sim.Mutex              // guards sess creation
	sess map[int]*engine.Session // peer index → session
}

func newPeerSessions(eng *engine.Engine, roster []*simnet.Node) peerSessions {
	return peerSessions{
		eng:    eng,
		roster: roster,
		smu:    sim.NewMutex(eng.Node().Cluster().Env()),
		sess:   make(map[int]*engine.Session),
	}
}

// callPeerDL performs one idempotent RPC to a cluster node over its
// cached session, bounded by deadlineNs.
func (ps *peerSessions) callPeerDL(p *sim.Proc, peer int, fn uint32, req []byte, deadlineNs int64) ([]byte, error) {
	ps.smu.Lock(p)
	s := ps.sess[peer]
	if s == nil {
		var err error
		s, err = ps.eng.NewSession(p, ps.roster[peer], Port, engine.SessionConfig{
			MaxRedials:    2,
			RedialBackoff: 50_000,
		})
		if err != nil {
			ps.smu.Unlock()
			return nil, err
		}
		ps.sess[peer] = s
	}
	ps.smu.Unlock()
	return s.Call(p, fn, req, engine.CallOpts{
		Proto:      engine.EagerSendRecv,
		Idempotent: true,
		Deadline:   sim.Duration(deadlineNs),
	})
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
