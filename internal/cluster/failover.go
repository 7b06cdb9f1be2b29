package cluster

import (
	"fmt"
	"slices"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/sim"
)

// Failover (DESIGN.md §15). Every cluster node runs one monitor
// process. Per tick, per owned shard:
//
//   - as primary: push same-epoch snapshot installs to suspect backups
//     (replicas that missed appends or were unreachable), restoring the
//     full replica set after partitions heal;
//   - as backup: after silenceTicks ticks with no word of the primary
//     (appends are words: a loaded shard sends no probe), or at once as a
//     ghost, run a census; a candidacy follows if it passes preVote. A
//     replica that hears its primary refuses other candidates' PREPARE.
//
// A candidacy is a two-phase, majority-fenced view change:
//
//  1. PREPARE: propose newEpoch = max(every epoch seen in a majority's
//     status) + 1. Each replica that accepts commits the promise
//     durably — from that commit on, across its own crashes, it refuses
//     every write below newEpoch. Quorum intersection then guarantees
//     the old primary can no longer acknowledge anything.
//  2. INSTALL: pull the snapshot of the freshest prepared replica (max
//     (content epoch, seq) — prefix-complete by the replication seq
//     rule, and frozen by its own promise), push it with the new epoch
//     to the prepared replicas, and promote only once a majority has
//     installed. Any acked write intersects the prepared majority in a
//     replica that accepted it BEFORE promising (afterwards it would
//     have refused), so the freshest prepared replica contains every
//     acked write — the cluster-wide zero-loss invariant.
//
// A candidacy that cannot reach quorum at any step simply aborts: the
// durable promises it left behind only inflate the next proposal's
// epoch; a replica under such a promise takes no word of the old
// primary, so the next census can pass. Minority-side candidates can
// therefore never promote, and same-epoch twin primaries cannot exist.

// startMonitor spawns the failover monitor as a node-owned process (it
// dies with the node's crash; the next boot's NewUnservedNode starts a
// fresh one). Ticks are staggered per node so symmetric candidacies on a
// freshly partitioned cluster do not collide deterministically forever;
// the first one waits a probe interval out unless the boot fenced a shard.
func (n *Node) startMonitor() {
	n.eng.Node().Spawn(fmt.Sprintf("cluster-monitor-%d", n.self), func(p *sim.Proc) {
		first := n.cfg.ProbeIntervalNs
		for _, id := range n.shardIDs {
			if n.shards[id].lost() {
				first = 0 // a fenced shard serves nobody until it has re-elected
			}
		}
		p.Sleep(sim.Duration(first + int64(n.self)*7_001))
		for {
			for _, id := range n.shardIDs {
				n.tickShard(p, n.shards[id])
			}
			p.Sleep(sim.Duration(n.cfg.ProbeIntervalNs))
		}
	})
}

// tickShard runs one monitor step for one shard.
func (n *Node) tickShard(p *sim.Proc, st *shardState) {
	st.mu.Lock(p)
	amPrimary := st.leads(n.self)
	// A ghost: hearsay names us primary of a view we never finished
	// installing or lost track of (the boot fence); it runs again.
	ghost := st.learnedPrimary == n.self && !amPrimary
	due := p.Now()-st.lastHeard >= sim.Time(silenceTicks*n.cfg.ProbeIntervalNs)
	st.mu.Unlock()
	switch {
	case amPrimary:
		n.resyncSuspects(p, st)
	case ghost || due:
		n.runCandidacy(p, st, ghost)
	}
}

// hears reports whether no census of this replica's own has found the
// primary silent since its last word (so a word outlasts the window until
// then) and no promise makes it refuse the primary's writes.
func (st *shardState) hears(self int) bool {
	return st.learnedPrimary != self && st.promised <= st.epoch && !st.silent
}

// census asks the believed primary prim for its status and, unless it
// answers that it leads and trust is set (no promise holds this replica),
// the replicas after it in ring order, into st.answers. It reports whether
// it stopped at a leading primary. It holds no lock while it asks.
func (n *Node) census(p *sim.Proc, st *shardState, prim int, trust bool) bool {
	st.answers = st.answers[:0]
	at := max(slices.Index(st.replicas, prim), 0) // hearsay from the wire may name a non-replica
	for k := range st.replicas {
		r := st.replicas[(at+k)%len(st.replicas)]
		if r == n.self {
			continue
		}
		sr, err := n.peer(r).Census(p, int32(st.id))
		if err != nil {
			continue
		}
		if r == prim && trust && sr.Leads {
			st.mu.Lock(p)
			st.adoptLearned(sr.LearnedEpoch, int(sr.LearnedPrimary))
			st.lastHeard, st.silent = p.Now(), false
			st.mu.Unlock()
			return true
		}
		st.answers = append(st.answers, peerStat{r, sr})
	}
	return false
}

// preVote decides from the census answers, before anything durable is
// written, whether this replica may run: a quorum (self included) answered,
// none names a fresher view (adopted instead), and unless this is the
// primary re-electing itself, a quorum (self included) does not hear the
// primary and no ring-earlier replica but the primary answered (that one
// runs). Caller holds st.mu.
func (n *Node) preVote(st *shardState, prim int, ghost bool) bool {
	q := quorum(len(st.replicas))
	unheard := 1
	me := slices.Index(st.replicas, n.self)
	for _, a := range st.answers {
		if a.sr.LearnedEpoch > st.learnedEpoch {
			st.adoptLearned(a.sr.LearnedEpoch, int(a.sr.LearnedPrimary))
			return false
		}
		if !ghost && a.id != prim && slices.Index(st.replicas, a.id) < me {
			return false
		}
		if !a.sr.Leads && !a.sr.Heard {
			unheard++
		}
	}
	return 1+len(st.answers) >= q && (ghost || unheard >= q)
}

// resyncSuspects pushes a same-epoch snapshot install to every backup
// marked suspect (missed appends, or unreachable during a write or the
// promotion). Runs under the shard mutex so the snapshot is exactly the
// current prefix and no append interleaves mid-resync.
func (n *Node) resyncSuspects(p *sim.Proc, st *shardState) {
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if !st.leads(n.self) {
		return
	}
	var targets []int
	for _, r := range st.replicas {
		if r != n.self && st.suspect[r] {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return
	}
	pairs, err := n.snapshotLocked(p, st)
	if err != nil {
		return
	}
	for _, r := range targets {
		switch e := n.peer(r).Install(p, int32(st.id), st.epoch, int32(n.self), st.seq, pairs).(type) {
		case nil:
			delete(st.suspect, r)
			n.stats.Resyncs++
			n.resyncs.Inc()
		case *gen.Stale:
			st.adoptLearned(e.Epoch, int(e.Primary)) // we were deposed; stop resyncing
			return
		}
		// Still unreachable, or refused: retry next tick.
	}
}

// runCandidacy runs a census and, if it passes the pre-vote, an
// epoch-fenced promotion of this node for the shard, holding the shard
// mutex from the pre-vote on: incoming appends and competing prepares wait
// (bounded by the callers' deadlines) until the outcome is durable.
func (n *Node) runCandidacy(p *sim.Proc, st *shardState, ghost bool) {
	st.mu.Lock(p)
	view, heard, prim, trust := st.learnedEpoch, st.lastHeard, st.learnedPrimary, st.promised <= st.epoch
	st.mu.Unlock()
	if n.census(p, st, prim, trust) {
		return
	}
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if st.leads(n.self) || st.learnedEpoch != view || st.lastHeard != heard {
		return // promoted, moved on, or heard from the primary while asking
	}
	st.silent = true
	if !n.preVote(st, prim, ghost) {
		return
	}
	n.stats.Candidacies++
	shard := int32(st.id)

	// The proposal must clear every epoch any answer has seen or promised.
	maxE := max(st.epoch, st.learnedEpoch, st.promised)
	for _, a := range st.answers {
		maxE = max(maxE, a.sr.Epoch, a.sr.LearnedEpoch, a.sr.Promised)
	}
	newEpoch := maxE + 1

	// Phase 1 — prepare: durable promises, self first.
	if err := n.promise(p, st, newEpoch); err != nil {
		return
	}
	acc := []peerStat{{n.self, gen.ShardStatus{Epoch: st.epoch, Seq: st.seq}}}
	for _, ps := range st.answers {
		sr, err := n.peer(ps.id).Prepare(p, shard, newEpoch, ghost)
		if e, ok := err.(*gen.Stale); ok {
			// Outbid, or refused by a replica that hears its primary.
			// Abort; our own promise only inflates the next proposal.
			st.adoptLearned(e.Epoch, int(e.Primary))
			return
		}
		if err != nil {
			continue
		}
		acc = append(acc, peerStat{ps.id, sr})
	}
	if len(acc) < quorum(len(st.replicas)) {
		return
	}

	// Phase 2 — pick the freshest prepared replica and fetch its
	// snapshot. Prefix-completeness of replicas makes (epoch, seq) a
	// total freshness order; the promise freezes it until install.
	best := acc[0]
	for _, a := range acc[1:] {
		if a.sr.Epoch > best.sr.Epoch ||
			(a.sr.Epoch == best.sr.Epoch && (a.sr.Seq > best.sr.Seq || (a.sr.Seq == best.sr.Seq && a.id < best.id))) {
			best = a
		}
	}
	var pairs []*gen.Pair
	seq := st.seq
	if best.id != n.self {
		snap, err := n.peer(best.id).Pull(p, shard)
		if err != nil {
			return // freshest vanished mid-candidacy; retry next tick
		}
		pairs, seq = snap.Pairs, snap.Seq
	} else {
		var err error
		if pairs, err = n.snapshotLocked(p, st); err != nil {
			return
		}
	}

	// Phase 3 — install on the prepared peers; promote locally only
	// once a majority (self included) holds the new view durably.
	acks := 1 // self, applied below
	okPeer := make(map[int]bool)
	for _, a := range acc {
		if a.id == n.self {
			continue
		}
		if n.peer(a.id).Install(p, shard, newEpoch, int32(n.self), seq, pairs) == nil {
			acks++
			okPeer[a.id] = true
		}
	}
	if acks < quorum(len(st.replicas)) {
		return // promises stand; the next candidacy proposes higher
	}
	if err := n.applyInstall(p, st, newEpoch, n.self, seq, pairs); err != nil {
		return
	}
	st.suspect = make(map[int]bool)
	for _, r := range st.replicas {
		if r != n.self && !okPeer[r] {
			st.suspect[r] = true // catch up via resync once reachable
		}
	}
	n.stats.Promotions++
	n.promotions.Inc()
}
