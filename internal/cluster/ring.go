// Package cluster is the sharded, replicated HatKV tier (DESIGN.md §15):
// a consistent-hash ring partitions keys across N simulated server
// nodes; each shard has a primary and RF-1 backups with primary→backup
// replication riding the engine Session layer; failover is epoch-fenced
// — a deterministic successor promotes through a durable quorum
// prepare/install protocol, bumps the shard epoch, and stale-epoch
// writes are rejected with engine.ErrStaleShardEpoch, triggering client
// shard-map refresh + replay (the verbs epoch-tagged-RKey discipline,
// one layer up).
//
// Determinism: ring placement is a pure function of (seed, node set,
// shard count); no runtime randomness is drawn anywhere in the package,
// and all shard/replica iteration is over sorted slices — the whole
// tier replays byte-identically under one sim seed.
package cluster

import (
	"hash/fnv"

	gen "hatrpc/internal/cluster/gen"
)

// vnodesPerNode is the virtual-point count per node on the ring. 16
// points smooth placement enough that 5 nodes × 8 shards spread within
// ±1 primary of even, while keeping ring construction trivial.
const vnodesPerNode = 16

// hashU64 folds a tuple of 64-bit parts through FNV-1a and a
// splitmix64 finalizer. The finalizer matters: FNV-1a alone barely
// avalanches on inputs differing only in a trailing counter byte
// (consecutive node/vnode ids land on consecutive hashes, collapsing
// the ring onto one node). Placement flows exclusively through this, so
// the ring is a pure function of its inputs and never touches the
// simulation RNG.
func hashU64(parts ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		b[0] = byte(p >> 56)
		b[1] = byte(p >> 48)
		b[2] = byte(p >> 40)
		b[3] = byte(p >> 32)
		b[4] = byte(p >> 24)
		b[5] = byte(p >> 16)
		b[6] = byte(p >> 8)
		b[7] = byte(p)
		h.Write(b[:])
	}
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// ShardOf maps a key to its shard: FNV-1a of the key bytes mod the
// shard count. Clients and servers must agree on nshards (it is fixed
// cluster configuration, like the seed).
func ShardOf(key string, nshards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(nshards))
}

// ringPoint is one virtual node position on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// hashRing is the sorted virtual-point ring of a node set under a seed.
type hashRing struct {
	seed   int64
	nodes  int // distinct nodes on it
	points []ringPoint
}

// buildRing returns the ring for the node set. Points are hashes of
// (seed, node, replica-index): deterministic, seeded placement with no
// runtime draws.
func buildRing(seed int64, nodes []int) hashRing {
	pts := make([]ringPoint, 0, len(nodes)*vnodesPerNode)
	for _, n := range nodes {
		for v := 0; v < vnodesPerNode; v++ {
			pts = append(pts, ringPoint{hash: hashU64(uint64(seed), uint64(n), uint64(v)), node: n})
		}
	}
	// Insertion sort by (hash, node): the ring is tiny and built once.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0; j-- {
			a, b := pts[j-1], pts[j]
			if a.hash < b.hash || (a.hash == b.hash && a.node <= b.node) {
				break
			}
			pts[j-1], pts[j] = b, a
		}
	}
	return hashRing{seed: seed, nodes: len(nodes), points: pts}
}

// Replicas returns shard s's configured replica set in ring order:
// starting at the shard's ring position, walk clockwise collecting the
// first rf distinct nodes. Replicas[0] is the seed primary. rf is
// clamped to the node count.
func Replicas(seed int64, nodes []int, shard, rf int) []int {
	return buildRing(seed, nodes).replicas(shard, rf)
}

// replicas is Replicas on a built ring: a caller that wants every shard's
// set builds the ring once.
func (r hashRing) replicas(shard, rf int) []int {
	rf = max(min(rf, r.nodes), 1)
	loc := hashU64(uint64(r.seed), 0x5348415244, uint64(shard)) // "SHARD" tag
	start := 0
	for i, pt := range r.points {
		if pt.hash >= loc {
			start = i
			break
		}
	}
	out := make([]int, 0, rf)
	for i := 0; len(out) < rf && i < len(r.points); i++ {
		n := r.points[(start+i)%len(r.points)].node
		dup := false
		for _, m := range out {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// NewShardMap builds the epoch-1 shard map for a fresh cluster: every
// shard at epoch 1 with its ring-order replica set and the first
// replica as primary. All nodes and clients derive the identical map
// from the shared (seed, nodes, nshards, rf) configuration.
func NewShardMap(seed int64, nodes []int, nshards, rf int) *ShardMap {
	m := &ShardMap{Shards: make([]*gen.Route, nshards)}
	ring := buildRing(seed, nodes)
	for s := range m.Shards {
		reps := ring.replicas(s, rf)
		r32 := make([]int32, len(reps))
		for i, r := range reps {
			r32[i] = int32(r)
		}
		m.Shards[s] = &gen.Route{Epoch: 1, Primary: r32[0], Replicas: r32}
	}
	return m
}

// quorum returns the majority threshold for n replicas: the prepare,
// install and replication-ack quorums all use it, so any two quorums of
// one shard's replica set intersect — the property every zero-loss
// argument in this package rests on.
func quorum(n int) int { return n/2 + 1 }
