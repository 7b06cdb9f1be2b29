package cluster

import (
	"fmt"

	"hatrpc/internal/sim"
)

// Replication fan-out (DESIGN.md §15). A primary ships one append to all
// of a shard's live backups at once: each backup peer has a long-lived
// lane — a node-owned process fed by a queue, started on the first append
// to that peer — and the put's handler waits for every lane it used
// before it reads any result. An RF-N put therefore costs
// commit + max(hop), and a dead backup costs the put one call deadline
// without delaying the append to a healthy one. Lanes are per peer, not
// per put: spawning per write would grow the env's and the node's process
// tables by one entry per write, neither of which is ever trimmed.

// replJob is one append in flight to one backup. The slots live in the
// shard (shardState.repl) and are reused by every put: the shard mutex is
// held across the fan-out, so a shard has at most one in flight.
type replJob struct {
	peer int
	req  []byte
	done *sim.Signal // the issuing shard's replDone

	resp []byte
	err  error
}

// lane returns the replication lane to peer, starting its process on
// first use. The process dies with this boot of the node, like the
// handlers that feed it; the next boot builds fresh lanes.
func (n *Node) lane(peer int) *sim.Queue[*replJob] {
	if q := n.lanes[peer]; q != nil {
		return q
	}
	q := sim.NewQueue[*replJob](n.env)
	n.lanes[peer] = q
	n.eng.Node().Spawn(fmt.Sprintf("cluster-repl-%d-%d", n.self, peer), func(p *sim.Proc) {
		for {
			j := q.Pop(p)
			j.resp, j.err = n.callPeer(p, j.peer, FnReplicate, j.req)
			j.done.Fire()
		}
	})
	return q
}

// replicate ships one encoded append to every non-suspect backup of st
// concurrently and returns the number of backup acks, or stale=true if
// any backup answered from a fresher view (the caller must then never
// ack). Caller holds st.mu — and keeps holding it until every lane has
// answered, so the next append of this shard cannot overtake this one on
// any lane and each backup still sees contiguous seqs. Each call is
// bounded by callDeadlineNs. Results are folded in ring order, not in
// completion order, so suspicion and adopted routing never depend on
// which reply happened to land first.
func (n *Node) replicate(p *sim.Proc, st *shardState, rr []byte) (acks int, stale bool) {
	jobs := st.repl[:0]
	for _, b := range st.replicas {
		if b == n.self || st.suspect[b] {
			continue // suspects catch up through resync installs
		}
		jobs = append(jobs, replJob{peer: b, req: rr, done: st.replDone})
	}
	for i := range jobs {
		n.lane(jobs[i].peer).Push(&jobs[i])
	}
	for range jobs {
		st.replDone.Wait(p)
	}
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil || len(j.resp) == 0 {
			st.suspect[j.peer] = true
			continue
		}
		switch j.resp[0] {
		case stOK:
			acks++
		case stStale:
			if e, pr, ok := decodeStale(j.resp); ok {
				st.adoptLearned(e, int(pr))
			}
			stale = true // deposed mid-write
		default: // stNeedSync, stFenced, stErr
			st.suspect[j.peer] = true
		}
	}
	return acks, stale
}
