package cluster

import (
	"fmt"

	"hatrpc/internal/sim"
)

// Failover (DESIGN.md §15). Every cluster node runs one monitor
// process. Per tick, per owned shard:
//
//   - as primary: push same-epoch snapshot installs to suspect backups
//     (replicas that missed appends or were unreachable), restoring the
//     full replica set after partitions heal;
//   - as backup: probe the believed primary; after failThreshold
//     consecutive failures, and only if every ring-earlier live replica
//     has also vanished (deterministic successor order), run a
//     candidacy.
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
// epoch. Minority-side candidates can therefore never promote, and
// same-epoch twin primaries cannot exist.

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
	ghost := st.learnedPrimary == n.self && !amPrimary
	target := st.learnedPrimary
	st.mu.Unlock()
	switch {
	case amPrimary:
		n.resyncSuspects(p, st)
	case ghost:
		// Hearsay names us primary of a view we never finished installing
		// (an interrupted candidacy) or lost track of (the boot fence).
		// Run for it at a higher epoch.
		n.runCandidacy(p, st)
	case target != n.self:
		n.probePrimary(p, st, target)
	}
}

// probePrimary checks the believed primary's liveness and adopts any
// fresher routing it reports.
func (n *Node) probePrimary(p *sim.Proc, st *shardState, target int) {
	resp, err := n.callPeerDL(p, target, FnShardStatus, st.probe, probeDeadlineNs)
	if err == nil && len(resp) >= 1 {
		sr, derr := decodeStatusResp(resp[1:])
		n.recycle(target, resp)
		if derr == nil {
			st.mu.Lock(p)
			st.probeFails = 0
			st.adoptLearned(sr.LearnedEpoch, int(sr.LearnedPrimary))
			st.mu.Unlock()
			return
		}
	}
	st.mu.Lock(p)
	st.probeFails++
	fails := st.probeFails
	st.mu.Unlock()
	if fails < failThreshold {
		return
	}
	if !n.firstEligible(p, st) {
		return
	}
	n.runCandidacy(p, st)
}

// firstEligible reports whether this node is the deterministic
// successor: the first replica, in ring order with the failed primary
// skipped, that is still reachable. Later replicas defer to any
// reachable earlier one, so at most one candidacy normally runs per
// failure (races are harmless — prepares serialize them).
func (n *Node) firstEligible(p *sim.Proc, st *shardState) bool {
	st.mu.Lock(p)
	prim := st.learnedPrimary
	reps := st.replicas
	st.mu.Unlock()
	for _, r := range reps {
		if r == prim {
			continue
		}
		if r == n.self {
			return true
		}
		resp, err := n.callPeerDL(p, r, FnShardStatus, st.probe, probeDeadlineNs)
		answered := err == nil && len(resp) >= 1
		n.recycle(r, resp)
		if answered {
			return false // an earlier successor lives; it will run
		}
	}
	return false
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
	pairs, err := n.snapshotLocked(st)
	if err != nil {
		return
	}
	ir := encodeInstall(installReq{
		Shard: uint16(st.id), Epoch: st.epoch, Primary: int32(n.self),
		Seq: st.seq, Pairs: pairs,
	})
	for _, r := range targets {
		resp, err := n.callPeerDL(p, r, FnInstall, ir, callDeadlineNs)
		if err != nil || len(resp) < 1 {
			continue // still unreachable; retry next tick
		}
		code := resp[0]
		e, pr, deposed := decodeStale(resp)
		n.recycle(r, resp)
		switch code {
		case stOK:
			delete(st.suspect, r)
			n.stats.Resyncs++
			n.resyncs.Inc()
		case stStale:
			if deposed {
				st.adoptLearned(e, int(pr)) // we were deposed; stop resyncing
			}
			return
		}
	}
}

// runCandidacy attempts an epoch-fenced promotion of this node for the
// shard. Holds the shard mutex throughout: incoming appends and
// competing prepares for this shard at this replica wait (bounded by
// the callers' deadlines) until the outcome is durable.
func (n *Node) runCandidacy(p *sim.Proc, st *shardState) {
	st.mu.Lock(p)
	defer st.mu.Unlock()
	if st.leads(n.self) {
		return // already promoted (a competing path won for us)
	}
	n.stats.Candidacies++
	shard := uint16(st.id)

	// Phase 0 — status census: a majority must be reachable, and the
	// proposal must clear every epoch any of them has seen or promised.
	type peerStat struct {
		id int
		sr statusResp
	}
	maxE := st.epoch
	if st.learnedEpoch > maxE {
		maxE = st.learnedEpoch
	}
	if st.promised > maxE {
		maxE = st.promised
	}
	var census []peerStat
	adoptE, adoptP := uint64(0), 0
	for _, r := range st.replicas {
		if r == n.self {
			continue
		}
		resp, err := n.callPeerDL(p, r, FnShardStatus, st.probe, probeDeadlineNs)
		if err != nil || len(resp) < 1 {
			continue
		}
		sr, derr := decodeStatusResp(resp[1:])
		n.recycle(r, resp)
		if derr != nil {
			continue
		}
		census = append(census, peerStat{r, sr})
		for _, e := range []uint64{sr.Epoch, sr.LearnedEpoch, sr.Promised} {
			if e > maxE {
				maxE = e
			}
		}
		if sr.LearnedEpoch > adoptE {
			adoptE, adoptP = sr.LearnedEpoch, int(sr.LearnedPrimary)
		}
	}
	if len(census)+1 < quorum(len(st.replicas)) {
		return // cannot fence a majority (e.g. minority partition side)
	}
	if adoptE > st.learnedEpoch {
		// A fresher view already exists: adopt it and defer — if its
		// primary is dead too, the next tick candidacies above it.
		st.adoptLearned(adoptE, adoptP)
		return
	}
	newEpoch := maxE + 1

	// Phase 1 — prepare: durable promises, self first.
	if err := n.promise(p, st, newEpoch, n.self); err != nil {
		return
	}
	type prepped struct {
		id    int
		epoch uint64
		seq   uint64
	}
	acc := []prepped{{n.self, st.epoch, st.seq}}
	prep := encodeStatus(statusReq{Shard: shard, Prepare: true, NewEpoch: newEpoch, Candidate: int32(n.self)})
	for _, ps := range census {
		resp, err := n.callPeerDL(p, ps.id, FnShardStatus, prep, callDeadlineNs)
		if err != nil || len(resp) < 1 {
			continue
		}
		code := resp[0]
		sr, derr := decodeStatusResp(resp[1:])
		n.recycle(ps.id, resp)
		if derr != nil {
			continue
		}
		if code != stOK {
			// Outbid: someone holds a higher promise or view. Abort; our
			// own promise only inflates the next proposal.
			st.adoptLearned(sr.LearnedEpoch, int(sr.LearnedPrimary))
			return
		}
		acc = append(acc, prepped{ps.id, sr.Epoch, sr.Seq})
	}
	if len(acc) < quorum(len(st.replicas)) {
		return
	}

	// Phase 2 — pick the freshest prepared replica and fetch its
	// snapshot. Prefix-completeness of replicas makes (epoch, seq) a
	// total freshness order; the promise freezes it until install.
	best := acc[0]
	for _, a := range acc[1:] {
		if a.epoch > best.epoch ||
			(a.epoch == best.epoch && (a.seq > best.seq || (a.seq == best.seq && a.id < best.id))) {
			best = a
		}
	}
	var pairs []snapPair
	seq := st.seq
	if best.id != n.self {
		resp, err := n.callPeerDL(p, best.id, FnShardPull, putU16(nil, shard), callDeadlineNs)
		if err != nil || len(resp) < 1 || resp[0] != stOK {
			n.recycle(best.id, resp)
			return // freshest vanished mid-candidacy; retry next tick
		}
		_, pseq, pp, derr := decodePullResp(resp[1:]) // copies every record out
		n.recycle(best.id, resp)
		if derr != nil {
			return
		}
		pairs, seq = pp, pseq
	} else {
		var err error
		if pairs, err = n.snapshotLocked(st); err != nil {
			return
		}
	}

	// Phase 3 — install on the prepared peers; promote locally only
	// once a majority (self included) holds the new view durably.
	inst := installReq{Shard: shard, Epoch: newEpoch, Primary: int32(n.self), Seq: seq, Pairs: pairs}
	ir := encodeInstall(inst)
	acks := 1 // self, applied below
	okPeer := make(map[int]bool)
	for _, a := range acc {
		if a.id == n.self {
			continue
		}
		resp, err := n.callPeerDL(p, a.id, FnInstall, ir, callDeadlineNs)
		installed := err == nil && len(resp) >= 1 && resp[0] == stOK
		n.recycle(a.id, resp)
		if installed {
			acks++
			okPeer[a.id] = true
		}
	}
	if acks < quorum(len(st.replicas)) {
		return // promises stand; the next candidacy proposes higher
	}
	if err := n.applyInstall(p, st, inst); err != nil {
		return
	}
	st.suspect = make(map[int]bool)
	for _, r := range st.replicas {
		if r != n.self && !okPeer[r] {
			st.suspect[r] = true // catch up via resync once reachable
		}
	}
	st.probeFails = 0
	n.stats.Promotions++
	n.promotions.Inc()
}
