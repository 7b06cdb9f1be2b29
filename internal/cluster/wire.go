package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire functions of the cluster service, served on Port by every
// cluster node. Client-facing: FnShardMap (routing bootstrap/refresh),
// FnClusterPut, FnClusterGet. Node-to-node: FnReplicate (primary →
// backup log append), FnShardStatus (census; with the prepare flag, a
// durable epoch promise), FnShardPull (snapshot fetch during
// candidacy), FnInstall (epoch install / resync: wholesale snapshot +
// meta in one durable commit).
const (
	FnShardMap uint32 = fnBase + iota
	FnClusterPut
	FnClusterGet
	FnReplicate
	FnShardStatus
	FnShardPull
	FnInstall
	fnEnd // one past the last wire function; new verbs go above it

	fnBase = 0x20
	nFns   = fnEnd - fnBase // sizes the per-function hint and plan tables
)

// Port is the cluster service's engine port.
const Port = "hatkv-cluster"

// Response status codes. Every handler reply starts with one status
// byte; stStale appends the responder's (learnedEpoch, learnedPrimary)
// so the caller can adopt fresher routing in the same round trip.
const (
	stOK        uint8 = iota
	stStale           // request's epoch/primary is behind the responder's view
	stNotQuorum       // primary could not assemble a replication quorum
	stNeedSync        // replica missed writes; needs a snapshot install
	stFenced          // shard is fenced by a durable candidacy promise
	stErr             // malformed request or internal failure
)

// Decode bounds. The shard map, snapshot and key/value fields are all
// length-prefixed; decoders reject anything beyond these caps before
// allocating, so a hostile or fuzzed buffer cannot balloon memory.
const (
	maxShards    = 1 << 12
	maxReplicas  = 16
	maxKeyLen    = 1 << 12
	maxValueLen  = 1 << 20
	maxSnapPairs = 1 << 20
)

// errDecode is the sentinel wrapped by every decoder failure.
var errDecode = errors.New("cluster: malformed message")

// ---------------------------------------------------------------------------
// Bounds-checked reader.

// rbuf is a cursor over a wire buffer. The first short read latches
// fail; every subsequent read returns zero values, so decoders can run
// straight-line and check fail once at the end.
type rbuf struct {
	b    []byte
	off  int
	fail bool
}

func (r *rbuf) u8() uint8 {
	if r.fail || r.off+1 > len(r.b) {
		r.fail = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u16() uint16 {
	if r.fail || r.off+2 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rbuf) u32() uint32 {
	if r.fail || r.off+4 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.fail || r.off+8 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) bytes(n int) []byte {
	if r.fail || n < 0 || r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// done reports a clean, fully-consumed decode.
func (r *rbuf) done() bool { return !r.fail && r.off == len(r.b) }

// ---------------------------------------------------------------------------
// Appending writer.

func putU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func putU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// ---------------------------------------------------------------------------
// Shard map.

// ShardInfo is one shard's routing entry: its current epoch, the node
// serving as primary, and the configured replica set in ring order.
type ShardInfo struct {
	Epoch    uint64
	Primary  int32
	Replicas []int32
}

// ShardMap is the wire-encoded routing table served by FnShardMap.
// Clients bootstrap from it and refresh it whenever a call fails with a
// stale epoch or an unreachable primary.
type ShardMap struct {
	Shards []ShardInfo
}

// Encode renders the map: u16 shard count, then per shard u64 epoch,
// u32 primary, u8 replica count, u32 replicas.
func (m *ShardMap) Encode() []byte {
	b := putU16(nil, uint16(len(m.Shards)))
	for _, s := range m.Shards {
		b = putU64(b, s.Epoch)
		b = putU32(b, uint32(s.Primary))
		b = append(b, byte(len(s.Replicas)))
		for _, r := range s.Replicas {
			b = putU32(b, uint32(r))
		}
	}
	return b
}

// DecodeShardMap parses an encoded map, rejecting out-of-bounds counts
// and trailing garbage.
func DecodeShardMap(b []byte) (*ShardMap, error) {
	r := &rbuf{b: b}
	n := int(r.u16())
	if n > maxShards {
		return nil, fmt.Errorf("%w: %d shards (max %d)", errDecode, n, maxShards)
	}
	m := &ShardMap{Shards: make([]ShardInfo, 0, n)}
	for i := 0; i < n; i++ {
		var s ShardInfo
		s.Epoch = r.u64()
		s.Primary = int32(r.u32())
		nr := int(r.u8())
		if nr > maxReplicas {
			return nil, fmt.Errorf("%w: %d replicas (max %d)", errDecode, nr, maxReplicas)
		}
		s.Replicas = make([]int32, 0, nr)
		for j := 0; j < nr; j++ {
			s.Replicas = append(s.Replicas, int32(r.u32()))
		}
		m.Shards = append(m.Shards, s)
	}
	if !r.done() {
		return nil, fmt.Errorf("%w: shard map framing", errDecode)
	}
	return m, nil
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

// appendStamped renders a data record onto b: the stamp, then val.
func appendStamped(b []byte, epoch, seq uint64, val []byte) []byte {
	b = slices.Grow(b, stampLen+len(val))
	return append(putU64(putU64(b, epoch), seq), val...)
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
	b = putU64(b, m.Epoch)
	b = putU32(b, uint32(m.Primary))
	b = putU64(b, m.Seq)
	return putU64(b, m.Promised)
}

func decodeShardMeta(b []byte) (shardMeta, error) {
	r := &rbuf{b: b}
	m := shardMeta{
		Epoch:    r.u64(),
		Primary:  int32(r.u32()),
		Seq:      r.u64(),
		Promised: r.u64(),
	}
	if !r.done() {
		return shardMeta{}, fmt.Errorf("%w: shard meta", errDecode)
	}
	return m, nil
}

// Store key layout. User keys are namespaced per shard so a snapshot
// cursor can walk one shard's records; meta records live under a
// distinct prefix. The prefix and the meta key are formatted once per
// shard per boot (shardState); dataKey is the per-operation form, one
// allocation sized for the result.
func dataPrefix(shard int) string { return fmt.Sprintf("u:%04x:", shard) }

func metaKey(shard int) string { return fmt.Sprintf("m:%04x", shard) }

func dataKey(prefix string, key []byte) string { return prefix + string(key) }

// ---------------------------------------------------------------------------
// Request/response bodies.

// putReq: client → primary write. The epoch is the client's routing
// belief; the primary rejects mismatches with stStale so stale clients
// refresh instead of writing into a deposed view.
type putReq struct {
	Shard uint16
	Epoch uint64
	Key   string
	Value []byte
}

// Header lengths in front of the [u16 key length | key | value] tail that
// putReq and the replicate append share byte for byte.
const (
	putHdrLen  = 2 + 8         // shard, epoch
	replHdrLen = 2 + 8 + 4 + 8 // shard, epoch, primary, seq
)

// appendPut renders q onto b, growing it once.
func appendPut(b []byte, q putReq) []byte {
	b = slices.Grow(b, putHdrLen+2+len(q.Key)+len(q.Value))
	b = putU16(b, q.Shard)
	b = putU64(b, q.Epoch)
	b = putU16(b, uint16(len(q.Key)))
	b = append(b, q.Key...)
	return append(b, q.Value...)
}

// getReq reuses the put framing without a value.
type getReq struct {
	Shard uint16
	Epoch uint64
	Key   string
}

func appendGet(b []byte, q getReq) []byte {
	return appendPut(b, putReq{Shard: q.Shard, Epoch: q.Epoch, Key: q.Key})
}

// appendRepl renders a primary → backup ordered log append onto b: the
// replicate header, then tail — a putReq's own key and value bytes, which
// the primary forwards without decoding them. Seq is per-shard,
// per-epoch, contiguous; the backup accepts seq == last+1, acks a replay
// of its last append idempotently, and demands a snapshot install on any
// gap.
func appendRepl(b []byte, shard uint16, epoch uint64, primary int32, seq uint64, tail []byte) []byte {
	b = slices.Grow(b, replHdrLen+len(tail))
	b = putU16(b, shard)
	b = putU64(b, epoch)
	b = putU32(b, uint32(primary))
	b = putU64(b, seq)
	return append(b, tail...)
}

// kvReq is a put, a get or a replicate append as a handler decodes it.
// Key, Value and Tail (the bytes behind the header: key length, key,
// value) are windows onto the request, lent like the request itself;
// Primary and Seq are set on appends only.
type kvReq struct {
	Shard            uint16
	Epoch            uint64
	Primary          int32
	Seq              uint64
	Key, Value, Tail []byte
}

// decodeKV parses the put framing, or with repl the replicate framing.
func decodeKV(b []byte, repl bool) (kvReq, error) {
	r := &rbuf{b: b}
	q := kvReq{Shard: r.u16(), Epoch: r.u64()}
	if repl {
		q.Primary = int32(r.u32())
		q.Seq = r.u64()
	}
	q.Tail = r.b[r.off:]
	kl := int(r.u16())
	if kl > maxKeyLen {
		return kvReq{}, fmt.Errorf("%w: key length %d", errDecode, kl)
	}
	q.Key = r.bytes(kl)
	rest := len(r.b) - r.off
	if rest > maxValueLen {
		return kvReq{}, fmt.Errorf("%w: value length %d", errDecode, rest)
	}
	q.Value = r.bytes(rest)
	if r.fail {
		return kvReq{}, fmt.Errorf("%w: put framing", errDecode)
	}
	return q, nil
}

// statusReq: census, or with Prepare a durable promise of NewEpoch (the
// Paxos-prepare half of candidacy) — with Reelect, by the primary of the
// receiver's view re-electing itself. Flags are bits 0 and 1 of one byte.
type statusReq struct {
	Shard            uint16
	Prepare, Reelect bool
	NewEpoch         uint64
}

const (
	statusLen     = 2 + 1 + 8
	statusRespLen = 8 + 8 + 8 + 4 + 8 + 1

	flagLeads = 1 << 0 // census flag: the responder leads the shard
	flagHeard = 1 << 1 // census flag: the responder hears its primary (shardState.hears)
)

func encodeStatus(q statusReq) []byte {
	b := putU16(make([]byte, 0, statusLen), q.Shard)
	f := byte(0)
	if q.Prepare {
		f = 1
	}
	if q.Reelect {
		f |= 2
	}
	return putU64(append(b, f), q.NewEpoch)
}

func decodeStatus(b []byte) (statusReq, error) {
	r := &rbuf{b: b}
	var q statusReq
	q.Shard = r.u16()
	f := r.u8()
	q.Prepare, q.Reelect = f&1 != 0, f&2 != 0
	q.NewEpoch = r.u64()
	if !r.done() {
		return statusReq{}, fmt.Errorf("%w: status framing", errDecode)
	}
	return q, nil
}

// statusResp reports a replica's full shard state: its durable content
// position (epoch, seq), the routing view it has learned, its outstanding
// promise, and its census flags. Candidates compute the next epoch from
// the max over all three epochs of a quorum.
type statusResp struct {
	Epoch          uint64
	Seq            uint64
	LearnedEpoch   uint64
	LearnedPrimary int32
	Promised       uint64
	Flags          uint8 // flagLeads | flagHeard
}

// appendStatusResp renders s onto b, which a reply fills with its status
// byte first.
func appendStatusResp(b []byte, s statusResp) []byte {
	b = putU64(b, s.Epoch)
	b = putU64(b, s.Seq)
	b = putU64(b, s.LearnedEpoch)
	b = putU32(b, uint32(s.LearnedPrimary))
	b = putU64(b, s.Promised)
	return append(b, s.Flags)
}

func decodeStatusResp(b []byte) (statusResp, error) {
	r := &rbuf{b: b}
	s := statusResp{
		Epoch:          r.u64(),
		Seq:            r.u64(),
		LearnedEpoch:   r.u64(),
		LearnedPrimary: int32(r.u32()),
		Promised:       r.u64(),
		Flags:          r.u8(),
	}
	if !r.done() {
		return statusResp{}, fmt.Errorf("%w: status resp framing", errDecode)
	}
	return s, nil
}

// snapPair is one record of a shard snapshot, carried with its full
// store key (data prefix included) so installs apply it verbatim.
type snapPair struct {
	Key   string
	Value []byte
}

// snapPairMinLen is an empty pair on the wire (u16 key length, u32 value
// length): a pair count the rest of the message cannot back is refused
// before the slice is sized by it.
const snapPairMinLen = 6

// installReq: wholesale shard state push. A view-change install (epoch
// > receiver's content epoch, matching the receiver's durable promise)
// replaces the shard's records and meta in one commit; a same-epoch
// install from the current primary resynchronizes a lagging backup.
type installReq struct {
	Shard   uint16
	Epoch   uint64
	Primary int32
	Seq     uint64
	Pairs   []snapPair
}

func encodeInstall(q installReq) []byte {
	b := putU16(nil, q.Shard)
	b = putU64(b, q.Epoch)
	b = putU32(b, uint32(q.Primary))
	b = putU64(b, q.Seq)
	b = putU32(b, uint32(len(q.Pairs)))
	for _, kv := range q.Pairs {
		b = putU16(b, uint16(len(kv.Key)))
		b = append(b, kv.Key...)
		b = putU32(b, uint32(len(kv.Value)))
		b = append(b, kv.Value...)
	}
	return b
}

func decodeInstall(b []byte) (installReq, error) {
	r := &rbuf{b: b}
	var q installReq
	q.Shard = r.u16()
	q.Epoch = r.u64()
	q.Primary = int32(r.u32())
	q.Seq = r.u64()
	n := int(r.u32())
	if n > maxSnapPairs || n > (len(b)-r.off)/snapPairMinLen {
		return installReq{}, fmt.Errorf("%w: %d snapshot pairs", errDecode, n)
	}
	q.Pairs = make([]snapPair, 0, n)
	for i := 0; i < n; i++ {
		kl := int(r.u16())
		if kl > maxKeyLen {
			return installReq{}, fmt.Errorf("%w: key length %d", errDecode, kl)
		}
		k := string(r.bytes(kl))
		vl := int(r.u32())
		if vl > maxValueLen {
			return installReq{}, fmt.Errorf("%w: value length %d", errDecode, vl)
		}
		v := r.bytes(vl)
		if r.fail {
			break
		}
		q.Pairs = append(q.Pairs, snapPair{Key: k, Value: append([]byte(nil), v...)})
	}
	if !r.done() {
		return installReq{}, fmt.Errorf("%w: install framing", errDecode)
	}
	return q, nil
}

// pullResp: snapshot fetch answer — the responder's content position
// plus every record of the shard. Reuses the install framing.
func encodePullResp(epoch, seq uint64, pairs []snapPair) []byte {
	return encodeInstall(installReq{Epoch: epoch, Seq: seq, Pairs: pairs})
}

func decodePullResp(b []byte) (epoch, seq uint64, pairs []snapPair, err error) {
	q, err := decodeInstall(b)
	if err != nil {
		return 0, 0, nil, err
	}
	return q.Epoch, q.Seq, q.Pairs, nil
}

// Stale replies carry the responder's learned routing so one round trip
// both rejects and re-educates.
func encodeStale(epoch uint64, primary int32) []byte {
	b := []byte{stStale}
	b = putU64(b, epoch)
	return putU32(b, uint32(primary))
}

func decodeStale(b []byte) (epoch uint64, primary int32, ok bool) {
	if len(b) != 13 || b[0] != stStale {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[1:]), int32(binary.BigEndian.Uint32(b[9:])), true
}

// Read replies: stOK, then a found flag — 0 and nothing after it for a
// missing key, 1 and the value for a present one. appendGetResp renders
// one onto b.
func appendGetResp(b, v []byte, found bool) []byte {
	if !found {
		return append(b, stOK, 0)
	}
	return append(append(b, stOK, 1), v...)
}

// decodeGetResp reads an stOK read reply. A flag that is missing or out
// of range, or bytes after a missing key's flag, make the reply
// malformed — never a missing key.
func decodeGetResp(b []byte) (v []byte, found bool, err error) {
	if len(b) < 2 || b[0] != stOK || b[1] > 1 || (b[1] == 0 && len(b) > 2) {
		return nil, false, fmt.Errorf("%w: get reply framing", errDecode)
	}
	return b[2:], b[1] == 1, nil
}
