package cluster

import (
	"bytes"

	"hatrpc/internal/hatkv"
)

// Post-run audit helpers for soaks and benches. They read the durable
// stores directly (no simulated I/O): after env.Run returns, each
// surviving store is exactly what a cold restart would recover, so the
// audit sees the cluster as the next boot would.

// ShardPosition returns the durable (content epoch, seq) of one shard
// at one store: (1, 0), where every replica starts, when the store never
// held the shard.
func ShardPosition(store *hatkv.Store, shard int) (epoch, seq int64) {
	m := durablePosition(store, shard, shardMeta{Epoch: 1})
	return m.Epoch, m.Seq
}

// ShardAuthority picks the audit authority for a shard: among the
// configured replicas' stores, the one whose durable content sits at
// the maximum (epoch, seq) — ties broken by the lowest replica index.
// By the quorum-intersection argument (DESIGN.md §15) every
// acknowledged SyncFull write is present there, so "key absent from the
// authority" == "acked write lost", cluster-wide. stores must be
// indexed like cfg.NodeIDs.
func ShardAuthority(cfg Config, stores []*hatkv.Store, shard int) int {
	cfg = cfg.withDefaults()
	reps := Replicas(cfg.Seed, cfg.NodeIDs, shard, cfg.RF)
	best, bestE, bestS := reps[0], int64(0), int64(0)
	for _, r := range reps {
		e, s := ShardPosition(stores[r], shard)
		if e > bestE || (e == bestE && s > bestS) {
			best, bestE, bestS = r, e, s
		}
	}
	return best
}

// StoreHas reports whether the store durably holds the shard's record
// for key, in its tree or in its log.
func StoreHas(store *hatkv.Store, shard int, key string) bool {
	k := []byte(dataKey(dataPrefix(shard), []byte(key)))
	logged := store.Logged()
	for i := 0; i < len(logged); i += 2 {
		if bytes.Equal(logged[i], k) {
			return true
		}
	}
	txn, err := store.Env().BeginRead()
	if err != nil {
		return false
	}
	defer txn.Abort()
	_, err = txn.Get(k)
	return err == nil
}

// NumShards exposes the defaulted shard count for a config, so harness
// code can route audit keys the way clients do.
func NumShards(cfg Config) int { return cfg.withDefaults().NShards }
