package cluster

import (
	"fmt"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/sim"
)

// Replication fan-out (DESIGN.md §15). A primary ships one append to all
// of a shard's live backups at once: each backup peer has a long-lived
// lane — a node-owned process fed by a queue, started on the first append
// to that peer. The put's handler ships the append onto the lanes, commits
// locally on its own process while they run, and then gathers: it waits
// for every lane it used before it reads any result. An RF-N put therefore
// costs max(commit, hop + commit) — the backup's commit is inside its
// hop — and a dead backup costs the put one call deadline without
// delaying the append to a healthy one. Lanes are per peer, not per put:
// spawning per write would grow the env's and the node's process tables
// by one entry per write, neither of which is ever trimmed.

// replJob is one append in flight to one backup: the Replicate call's
// arguments, key and value lent from the put's request. The slots live in
// the shard (shardState.repl) and are reused by every put: the shard mutex
// is held across the fan-out, so a shard has at most one in flight.
type replJob struct {
	peer       int
	shard      int32
	epoch, seq int64
	primary    int32
	key, value []byte
	done       *sim.Signal // the issuing shard's replDone

	err error
}

// lane returns the replication lane to peer, starting its process — with
// its own client of the peer — on first use. The process dies with this
// boot of the node, like the handlers that feed it; the next boot builds
// fresh lanes.
func (n *Node) lane(peer int) *sim.Queue[*replJob] {
	if q := n.lanes[peer]; q != nil {
		return q
	}
	q := sim.NewQueue[*replJob](n.env)
	n.lanes[peer] = q
	n.eng.Node().Spawn(fmt.Sprintf("cluster-repl-%d-%d", n.self, peer), func(p *sim.Proc) {
		c := n.client(peer)
		for {
			j := q.Pop(p)
			j.err = c.Replicate(p, j.shard, j.epoch, j.primary, j.seq, j.key, j.value)
			j.done.Fire()
		}
	})
	return q
}

// ship pushes the append of key and value under seq onto the lane of
// every non-suspect backup of st and returns at once. Caller holds st.mu —
// and keeps holding it until gather has returned, so the next append of
// this shard cannot overtake this one on any lane and each backup still
// sees contiguous seqs; key, value and the job slots are the lanes' until
// then. A backup whose node closed its session in an orderly
// stop (a graceful drain) becomes a suspect here, without a call: the put
// would otherwise wait out the re-dials of a machine going down.
func (n *Node) ship(st *shardState, seq int64, key, value []byte) {
	st.repl = st.repl[:0]
	for _, b := range st.replicas {
		if b == n.self || st.suspect[b] {
			continue // suspects catch up through resync installs
		}
		if s := n.sess[b]; s != nil && s.PeerLeft() {
			st.suspect[b] = true
			continue
		}
		st.repl = append(st.repl, replJob{
			peer: b, shard: int32(st.id), epoch: st.epoch, seq: seq, primary: int32(n.self),
			key: key, value: value, done: st.replDone,
		})
	}
	for i := range st.repl {
		n.lane(st.repl[i].peer).Push(&st.repl[i])
	}
}

// gather waits for every lane ship used and returns the number of backup
// acks, or stale=true if any backup answered from a fresher view (the
// caller must then never ack). Each call is bounded by callDeadlineNs.
// Results are folded in ring order, not in completion order, so suspicion
// and adopted routing never depend on which reply happened to land first.
func (n *Node) gather(p *sim.Proc, st *shardState) (acks int, stale bool) {
	for range st.repl {
		st.replDone.Wait(p)
	}
	for i := range st.repl {
		j := &st.repl[i]
		switch e := j.err.(type) {
		case nil:
			acks++
		case *gen.Stale:
			st.adoptLearned(e.Epoch, int(e.Primary))
			stale = true // deposed mid-write
		default: // unreachable, NeedSync, Fenced, or refused
			st.suspect[j.peer] = true
		}
		j.key, j.value = nil, nil // the request they lie in is the handler's
	}
	return acks, stale
}
