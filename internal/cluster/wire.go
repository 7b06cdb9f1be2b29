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

// ShardMap is the routing table the ShardMap verb serves, as it carries
// it (Routes, cluster.hrpc): per shard, its epoch, the node serving as
// primary, and the configured replica set in ring order. Clients
// bootstrap from it and refresh it whenever a call fails with a stale
// epoch or an unreachable primary.
type ShardMap gen.Routes

// Encode renders the map in the ShardMap verb's encoding (Routes,
// cluster.hrpc).
func (m *ShardMap) Encode() []byte {
	buf := thrift.NewTMemoryBuffer()
	(*gen.Routes)(m).Write(thrift.NewTBinaryProtocol(buf)) // fails only on a nil route, which no map holds
	return buf.Bytes()
}

// DecodeShardMap parses what Encode renders, rejecting malformed bytes and
// trailing garbage.
func DecodeShardMap(b []byte) (*ShardMap, error) {
	buf := thrift.NewTMemoryBufferWith(b)
	m := new(ShardMap)
	if err := (*gen.Routes)(m).Read(thrift.NewTBinaryProtocol(buf)); err != nil {
		return nil, fmt.Errorf("cluster: shard map: %w", err)
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("cluster: shard map: %d bytes past its end", buf.Len())
	}
	return m, nil
}

// Merge folds fresher routing into the map: per shard, the higher epoch
// wins (replica sets are static configuration and never change). This
// is the client's refresh rule, so a node with a stale view can never
// roll a client's routing backwards.
func (m *ShardMap) Merge(o *ShardMap) {
	for i, r := range m.Shards {
		if i < len(o.Shards) && o.Shards[i].Epoch > r.Epoch {
			r.Epoch, r.Primary = o.Shards[i].Epoch, o.Shards[i].Primary
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
	Epoch    int64 // content epoch: the view this replica's data belongs to
	Primary  int32 // that view's primary
	Seq      int64 // seq when the record was written; later appends of the epoch are stamped on their data records
	Promised int64 // highest epoch durably promised to a candidate
}

// readStamp splits a data record into its stamp and user bytes; ok is
// false for a record too short to carry a stamp.
func readStamp(rec []byte) (epoch, seq int64, val []byte, ok bool) {
	if len(rec) < stampLen {
		return 0, 0, nil, false
	}
	return int64(binary.BigEndian.Uint64(rec)), int64(binary.BigEndian.Uint64(rec[8:])), rec[stampLen:], true
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
	b = binary.BigEndian.AppendUint64(b, uint64(m.Epoch))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Primary))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Seq))
	return binary.BigEndian.AppendUint64(b, uint64(m.Promised))
}

// decodeShardMeta reads a meta record; ok is false for one of another
// length.
func decodeShardMeta(b []byte) (m shardMeta, ok bool) {
	if len(b) != metaLen {
		return shardMeta{}, false
	}
	return shardMeta{
		Epoch:    int64(binary.BigEndian.Uint64(b)),
		Primary:  int32(binary.BigEndian.Uint32(b[8:])),
		Seq:      int64(binary.BigEndian.Uint64(b[12:])),
		Promised: int64(binary.BigEndian.Uint64(b[20:])),
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
func dataPair(prefix string, key []byte, epoch, seq int64, val []byte) (k, v []byte) {
	n := len(prefix) + len(key)
	b := append(append(make([]byte, 0, n+stampLen+len(val)), prefix...), key...)
	b = append(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, uint64(epoch)), uint64(seq)), val...)
	return b[:n:n], b[n:]
}
