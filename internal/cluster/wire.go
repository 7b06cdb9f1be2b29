package cluster

import (
	"encoding/binary"
	"fmt"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/thrift"
)

// The cluster service, its verbs and their hints are declared in
// cluster.hrpc and compiled by hatc into gen: every cluster node serves it
// on Port (Node.Handle), and clients and peers call it through generated
// clients (peerSessions.client). This file keeps what is not a message:
// the shard map's type and the durable storage format.

// Port is the cluster service's engine port.
const Port = "hatkv-cluster"

// Wire ids of the client-facing data verbs, for a server that wraps
// Node.Handle and tells them apart.
var (
	FnClusterPut = gen.ClusterHints.FnIDs["Put"]
	FnClusterGet = gen.ClusterHints.FnIDs["Get"]
)

// ---------------------------------------------------------------------------
// Shard map.

// ShardInfo is one shard's routing entry: its current epoch, the node
// serving as primary, and the configured replica set in ring order.
type ShardInfo struct {
	Epoch    uint64
	Primary  int32
	Replicas []int32
}

// ShardMap is the routing table the ShardMap verb serves. Clients
// bootstrap from it and refresh it whenever a call fails with a stale
// epoch or an unreachable primary.
type ShardMap struct {
	Shards []ShardInfo
}

// routes is the map as the ShardMap verb carries it.
func (m *ShardMap) routes() gen.Routes {
	rs := gen.Routes{Shards: make([]*gen.Route, len(m.Shards))}
	for i, s := range m.Shards {
		rs.Shards[i] = &gen.Route{Epoch: int64(s.Epoch), Primary: s.Primary, Replicas: s.Replicas}
	}
	return rs
}

// shardMapOf is the map a ShardMap reply carries.
func shardMapOf(rs gen.Routes) *ShardMap {
	m := &ShardMap{Shards: make([]ShardInfo, len(rs.Shards))}
	for i, r := range rs.Shards {
		m.Shards[i] = ShardInfo{Epoch: uint64(r.Epoch), Primary: r.Primary, Replicas: r.Replicas}
	}
	return m
}

// Encode renders the map in the ShardMap verb's encoding (Routes,
// cluster.hrpc).
func (m *ShardMap) Encode() []byte {
	buf := thrift.NewTMemoryBuffer()
	rs := m.routes()
	rs.Write(thrift.NewTBinaryProtocol(buf)) // writes to memory cannot fail
	return buf.Bytes()
}

// DecodeShardMap parses what Encode renders, rejecting malformed bytes and
// trailing garbage.
func DecodeShardMap(b []byte) (*ShardMap, error) {
	buf := thrift.NewTMemoryBufferWith(b)
	var rs gen.Routes
	if err := rs.Read(thrift.NewTBinaryProtocol(buf)); err != nil {
		return nil, fmt.Errorf("cluster: shard map: %w", err)
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("cluster: shard map: %d bytes past its end", buf.Len())
	}
	return shardMapOf(rs), nil
}

// Merge folds fresher routing into the map: per shard, the higher epoch
// wins (replica sets are static configuration and never change). This
// is the client's refresh rule, so a node with a stale view can never
// roll a client's routing backwards.
func (m *ShardMap) Merge(o *ShardMap) {
	for i := range m.Shards {
		if i < len(o.Shards) && o.Shards[i].Epoch > m.Shards[i].Epoch {
			m.Shards[i].Epoch = o.Shards[i].Epoch
			m.Shards[i].Primary = o.Shards[i].Primary
		}
	}
}

// ---------------------------------------------------------------------------
// Durable per-shard position: stamped data records and the meta record.
//
// Every data record is stamped with the (epoch, seq) of the append that
// wrote it, in front of its user bytes, so an append is one store write.
// The meta record — one per shard per replica — is written only by a
// candidacy promise and by an install, each with the seq of that moment.
// The durable position is the meta record's, or the epoch-1 defaults
// without one, with Seq advanced to the highest stamp of that epoch among
// the shard's records (durablePosition). A stamp of another epoch is a
// record an install carried over, or an orphan of a deposed view: it says
// nothing about this one. The promise pair is the durable half of
// candidacy fencing: a replica that promised epoch E refuses every write
// below E even across its own crash–restart — volatile fences would
// forget the promise exactly when it matters.

const (
	metaLen  = 8 + 4 + 8 + 8
	stampLen = 8 + 8 // epoch, seq in front of a data record's user bytes
)

type shardMeta struct {
	Epoch    uint64 // content epoch: the view this replica's data belongs to
	Primary  int32  // that view's primary
	Seq      uint64 // seq when the record was written; later appends of the epoch are stamped on their data records
	Promised uint64 // highest epoch durably promised to a candidate
}

// readStamp splits a data record into its stamp and user bytes; ok is
// false for a record too short to carry a stamp.
func readStamp(rec []byte) (epoch, seq uint64, val []byte, ok bool) {
	if len(rec) < stampLen {
		return 0, 0, nil, false
	}
	return binary.BigEndian.Uint64(rec), binary.BigEndian.Uint64(rec[8:]), rec[stampLen:], true
}

// advance folds one data record into the position: a stamp of its epoch
// past its seq moves the seq there. A short record or another epoch's
// stamp leaves the position as it is.
func (m *shardMeta) advance(rec []byte) {
	if e, s, _, ok := readStamp(rec); ok && e == m.Epoch && s > m.Seq {
		m.Seq = s
	}
}

// appendTo renders the record onto b.
func (m shardMeta) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Primary))
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	return binary.BigEndian.AppendUint64(b, m.Promised)
}

// decodeShardMeta reads a meta record; ok is false for one of another
// length.
func decodeShardMeta(b []byte) (m shardMeta, ok bool) {
	if len(b) != metaLen {
		return shardMeta{}, false
	}
	return shardMeta{
		Epoch:    binary.BigEndian.Uint64(b),
		Primary:  int32(binary.BigEndian.Uint32(b[8:])),
		Seq:      binary.BigEndian.Uint64(b[12:]),
		Promised: binary.BigEndian.Uint64(b[20:]),
	}, true
}

// Store key layout. User keys are namespaced per shard so a snapshot
// cursor can walk one shard's records; meta records live under a
// distinct prefix. The prefix and the meta key are formatted once per
// shard per boot (shardState); dataKey is the per-operation form, one
// allocation sized for the result.
func dataPrefix(shard int) string { return fmt.Sprintf("u:%04x:", shard) }

func metaKey(shard int) string { return fmt.Sprintf("m:%04x", shard) }

func dataKey(prefix string, key []byte) string { return prefix + string(key) }

// dataPair renders a data record's store pair in one allocation, as
// lmdb.CopyPair lays one out: the data key is its capacity-capped head,
// the record — the stamp, then val — its tail.
func dataPair(prefix string, key []byte, epoch, seq uint64, val []byte) (k, v []byte) {
	n := len(prefix) + len(key)
	b := append(append(make([]byte, 0, n+stampLen+len(val)), prefix...), key...)
	b = append(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, epoch), seq), val...)
	return b[:n:n], b[n:]
}
