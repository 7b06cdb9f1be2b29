package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// TestFourClientsNoFalseFailover runs the benchmark's cluster_rf3 — five
// nodes, eight shards, RF 3, SyncFull, the production node's breaker, no
// fault — with four closed-loop clients instead of one. Each client puts
// one of its own keys (one put in eight carries 16 KB) and reads it back.
// Nothing fails, so nothing may fail over: no replica promises anything,
// no write is refused as fenced, and every op succeeds. With a per-tick
// probe that fails over on two timeouts, seeds 3, 5 and 6 collapse here: a
// probe times out behind puts that hold the primary's shard mutex, the
// census prepares — and so fences — the primary it has just heard answer,
// the candidacy fails, and its promise stands.
func TestFourClientsNoFalseFailover(t *testing.T) {
	const (
		clients = 4
		setupNs = 8_000_000  // sessions dialled, one pair per primary per client
		loadNs  = 30_000_000 // closed-loop load after it
	)
	ecfg := engine.DefaultConfig()
	ecfg.BreakerThreshold = 4
	ecfg.BreakerCooldown = 500_000
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := newTestClusterWith(t, seed, 5, Config{Seed: 1, NShards: 8, RF: 3}, ecfg)
			view := NewShardMap(tc.cfg.Seed, tc.cfg.NodeIDs, tc.cfg.NShards, tc.cfg.RF)
			reg := sim.NewMutex(tc.env)
			var ok, failed int
			running := clients
			for i := 0; i < clients; i++ {
				i := i
				rng := sim.NewRand(seed*1_000_003 + int64(i)*7919 + 1)
				tc.env.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
					c := NewClient(tc.cliEng, tc.roster, tc.cfg)
					small, large := make([]byte, 160), make([]byte, 16<<10)
					rng.Read(small)
					rng.Read(large)
					pair := func(key string, val []byte) {
						if err := c.Put(p, key, val); err != nil {
							failed++
							t.Logf("put %s: %v", key, err)
							return
						}
						ok++
						if got, err := c.Get(p, key); err != nil || !bytes.Equal(got, val) {
							failed++
							t.Logf("get %s: %d bytes, %v", key, len(got), err)
							return
						}
						ok++
					}
					reg.Lock(p)
					for pr := range tc.roster { // one key led by every primary
						for j := 0; ; j++ {
							k := fmt.Sprintf("c%d-probe-%d", i, j)
							if int(view.Shards[ShardOf(k, tc.cfg.NShards)].Primary) == pr {
								pair(k, small[:128])
								break
							}
						}
					}
					reg.Unlock()
					p.Sleep(sim.Duration(setupNs - int64(p.Now())))
					for it := 0; p.Now() < setupNs+loadNs; it++ {
						p.Sleep(sim.Duration(rng.Int63n(1000)))
						val := small[:96+rng.Intn(65)]
						if it%8 == 7 {
							val = large
						}
						pair(fmt.Sprintf("c%d-k%04d", i, rng.Intn(2000)), val)
					}
					if running--; running == 0 {
						tc.env.Stop()
					}
				})
			}
			tc.env.Run()
			var s NodeStats
			promised := 0
			for _, n := range tc.nodes {
				s.Add(n.Stats())
				for _, id := range n.shardIDs {
					if n.shards[id].promised != 0 {
						promised++
					}
				}
			}
			t.Logf("seed %d: %.1f K ops/s, %d failed ops; %d shard replicas promised, %d candidacies, %d fenced writes",
				seed, float64(ok)/(loadNs/1e9)/1e3, failed, promised, s.Candidacies, s.FencedWrites)
			if failed != 0 || promised != 0 || s.Candidacies != 0 || s.FencedWrites != 0 {
				t.Errorf("a fault-free cluster failed %d ops, holds %d promises after %d candidacies and refused %d writes as fenced; want none of each",
					failed, promised, s.Candidacies, s.FencedWrites)
			}
		})
	}
}

// TestPreVote: the primary's appends to its ring-first backup are cut, one
// way, while writes flow. That backup hears nothing and runs a census at
// every tick, but the other backup hears the primary, so the pre-vote
// fails: no promise, no PREPARE, no candidacy — and the other backup
// refuses a PREPARE sent to it anyway. The primary acks every put. Then
// the primary reboots while the other backup still hears its last boot:
// as a boot-fenced ghost it re-elects itself, sticky backup and all.
func TestPreVote(t *testing.T) {
	tc := newTestCluster(t, 97, 3, Config{NShards: 1, RF: 3})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, deaf, other := reps[0], tc.nodes[reps[1]], tc.nodes[reps[2]]
	tc.env.Spawn("driver", func(p *sim.Proc) { // off the primary's node, which reboots
		defer tc.env.Stop()
		if err := putAt(p, tc.nodes[prim], "k", []byte("v0")); err != nil {
			t.Errorf("warm-up put: %v", err)
			return
		}
		tc.cl.InstallFaults(simnet.FaultConfig{OneWayCuts: []simnet.LinkCut{
			{From: prim, To: reps[1], StartNs: int64(p.Now()), EndNs: 1 << 62},
		}})
		end := p.Now() + sim.Time(40*tc.cfg.ProbeIntervalNs)
		for i := 1; p.Now() < end; i++ {
			if err := putAt(p, tc.nodes[prim], "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("put %d with the ring-first backup cut off: %v, want an ack", i, err)
				return
			}
			p.Sleep(20_000)
		}
		if !deaf.shards[0].silent || !other.shards[0].hears(other.self) {
			t.Errorf("the cut-off backup finds the primary silent: %v, the other hears it: %v; want both",
				deaf.shards[0].silent, other.shards[0].hears(other.self))
		}
		if _, err := at(other).Prepare(p, 0, 9, false); outcome(err) != "stale" {
			t.Errorf("the backup that hears the primary answered a PREPARE with %v, want Stale", err)
		}
		for _, n := range tc.nodes {
			if s := n.stats; n.shards[0].promised != 0 || s.Candidacies != 0 || s.FencedWrites != 0 {
				t.Errorf("node %d holds promise %d after %d candidacies and %d fenced writes; want none",
					n.self, n.shards[0].promised, s.Candidacies, s.FencedWrites)
			}
		}

		tc.roster[prim].Crash()
		tc.roster[prim].Restart()
		for tick := 0; tc.nodes[prim].stats.Promotions == 0; tick++ {
			if tick == 40 {
				t.Error("the rebooted primary did not re-elect itself within 40 probe intervals")
				return
			}
			p.Sleep(sim.Duration(tc.cfg.ProbeIntervalNs))
		}
		if st := other.shards[0]; st.epoch != 2 || st.primary != prim {
			t.Errorf("the other backup is at epoch %d under node %d, want epoch 2 under the re-elected %d", st.epoch, st.primary, prim)
		}
	})
	tc.env.Run()
}

// TestCensusAnswersBehindPuts: a census is answered without the shard
// mutex, so a backup's census of a primary whose mutex a put holds — here
// for twice the census deadline — still stops at the first answer, "I
// lead", instead of timing out and taking the primary for silent.
func TestCensusAnswersBehindPuts(t *testing.T) {
	tc := newTestCluster(t, 101, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	backup := tc.nodes[reps[1]]
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		if !backup.census(p, backup.shards[0], reps[0], true) { // dials the session
			t.Error("census of an idle primary did not stop at it")
			return
		}
		held := tc.nodes[reps[0]].shards[0].mu
		tc.env.Spawn("holder", func(hp *sim.Proc) {
			held.Lock(hp)
			hp.Sleep(sim.Duration(2 * probeDeadlineNs))
			held.Unlock()
		})
		p.Sleep(1_000) // the holder has the lock
		start := p.Now()
		if !backup.census(p, backup.shards[0], reps[0], true) || int64(p.Now()-start) >= probeDeadlineNs {
			t.Errorf("census of a primary behind its shard mutex: took %d ns, stopped at the primary: no", p.Now()-start)
		}
	})
	tc.env.Run()
}

// TestStandingPromiseIsLifted reproduces the state a failed candidacy
// used to leave for good: both backups have promised a higher epoch, so
// the live primary can no longer replicate, yet it still answers every
// census that it leads. A replica under a promise takes no word of that
// primary, so a backup runs for the shard and the next put is acked in
// the new view. A stray prepare below every epoch the backups know,
// negative included, is answered Stale and leaves their promises as they
// were: the next put is acked in the first view, on every replica.
func TestStandingPromiseIsLifted(t *testing.T) {
	for _, promise := range []int64{5, -1} {
		t.Run(fmt.Sprint("promise=", promise), func(t *testing.T) {
			tc := newTestCluster(t, 103, 3, Config{NShards: 1, RF: 3})
			reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
			granted := promise > 1
			tc.env.Spawn("driver", func(p *sim.Proc) {
				defer tc.env.Stop()
				c := NewClient(tc.cliEng, tc.roster, tc.cfg)
				if err := c.Put(p, "k", []byte("v1")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				for _, b := range reps[1:] {
					st := tc.nodes[b].shards[0]
					was := st.promised
					_, err := at(tc.nodes[b]).Prepare(p, 0, promise, true)
					if granted && err != nil || !granted && (outcome(err) != "stale" || st.promised != was) {
						t.Errorf("stray prepare at node %d: %v, promise %d → %d", b, err, was, st.promised)
						return
					}
				}
				if err := c.Put(p, "k", []byte("v2")); err != nil {
					t.Errorf("put under the stray promises: %v", err)
					return
				}
				v, err := c.Get(p, "k")
				if e := c.View().Shards[0].Epoch; err != nil || string(v) != "v2" || granted && e <= promise || !granted && e != 1 {
					t.Errorf("get: %q, %v at epoch %d; want v2 in a view above the promise if it was granted, else at 1", v, err, e)
				}
				for _, r := range reps {
					if st := tc.nodes[r].shards[0]; !granted && (st.epoch != 1 || st.seq != 2) {
						t.Errorf("node %d at e%d/s%d, want e1/s2", r, st.epoch, st.seq)
					}
				}
			})
			tc.env.Run()
		})
	}
}
