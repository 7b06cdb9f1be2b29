package cluster

import (
	"bytes"
	"testing"
)

// FuzzShardMapDecode checks the shard-map wire codec against arbitrary
// bytes: DecodeShardMap must reject malformed, truncated or oversized
// buffers without panicking or over-allocating (every count field is
// bounds-checked before any allocation), and every accepted map must
// re-encode to the exact input bytes — the codec is bijective on its
// domain, so client-side merges and server-side re-serves can never
// drift from what traveled the wire.
func FuzzShardMapDecode(f *testing.F) {
	f.Add(NewShardMap(7, []int{0, 1, 2, 3, 4}, 8, 3).Encode())
	m := NewShardMap(3, []int{0, 1}, 2, 1)
	m.Shards[1].Epoch = 1 << 40
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 1})                   // count 1, no shard body
	f.Add([]byte{0xFF, 0xFF})             // count over maxShards
	f.Add(m.Encode()[:len(m.Encode())-1]) // truncated tail
	f.Add(append(m.Encode(), 0x00))       // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		dm, err := DecodeShardMap(data)
		if err != nil {
			return
		}
		if len(dm.Shards) > maxShards {
			t.Fatalf("decoded %d shards past the bound", len(dm.Shards))
		}
		for _, s := range dm.Shards {
			if len(s.Replicas) > maxReplicas {
				t.Fatalf("decoded %d replicas past the bound", len(s.Replicas))
			}
		}
		if out := dm.Encode(); !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not bijective:\n in:  %x\n out: %x", data, out)
		}
	})
}

// replyDecoders are the decoders a node or client runs over bytes a peer
// sent or a store holds: each is handed a message, reports whether it
// decoded, and checks what it decoded against the caps in wire.go.
var replyDecoders = []struct {
	name  string
	valid []byte
	// fixed: the framing has no variable tail, so any other length fails.
	fixed  bool
	decode func(t *testing.T, b []byte) bool
}{
	{"decodeStale", encodeStale(9, 2), true, func(t *testing.T, b []byte) bool {
		_, _, ok := decodeStale(b)
		return ok
	}},
	// A found read ends in the value, which is whatever is left: only the
	// status and the flag can be cut short. A missing key is two bytes.
	{"decodeGetResp/found", appendGetResp(nil, nil, true), false, checkGetResp},
	{"decodeGetResp/missing", appendGetResp(nil, nil, false), true, checkGetResp},
	{"decodeStatusResp", encodeStatusResp(statusResp{Epoch: 3, Seq: 7, LearnedEpoch: 4, LearnedPrimary: 1, Promised: 5, Flags: flagLeads | flagHeard}), true,
		func(t *testing.T, b []byte) bool {
			_, err := decodeStatusResp(b)
			return err == nil
		}},
	{"decodeStatus", encodeStatus(statusReq{Shard: 3, Prepare: true, Reelect: true, NewEpoch: 8}), true, func(t *testing.T, b []byte) bool {
		_, err := decodeStatus(b)
		return err == nil
	}},
	{"decodeInstall", encodeInstall(installReq{Shard: 1, Epoch: 2, Primary: 1, Seq: 9, Pairs: []snapPair{{"u:0001:a", []byte("va")}, {"u:0001:b", nil}}}), true,
		func(t *testing.T, b []byte) bool {
			q, err := decodeInstall(b)
			checkPairs(t, b, q.Pairs)
			return err == nil
		}},
	{"decodePullResp", encodePullResp(4, 11, []snapPair{{"u:0000:k", []byte("v")}}), true, func(t *testing.T, b []byte) bool {
		_, _, pairs, err := decodePullResp(b)
		checkPairs(t, b, pairs)
		return err == nil
	}},
	// The put framing ends in the value, which is whatever is left: only
	// the header and key can be cut short.
	{"decodeKV/put", appendPut(nil, putReq{Shard: 2, Epoch: 6, Key: "some-key"}), false, func(t *testing.T, b []byte) bool {
		q, err := decodeKV(b, false)
		checkKV(t, q)
		return err == nil
	}},
	{"decodeKV/replicate", appendRepl(nil, 2, 6, 1, 40, appendPut(nil, putReq{Key: "some-key"})[putHdrLen:]), false, func(t *testing.T, b []byte) bool {
		q, err := decodeKV(b, true)
		checkKV(t, q)
		return err == nil
	}},
	// A stored data record ends in the user bytes: only the stamp can be
	// cut short.
	{"readStamp", appendStamped(nil, 3, 9, nil), false, checkStamp},
}

// checkStamp: a data record folded into an epoch-3 position at seq 5 never
// lowers it or changes its epoch, and raises it only to the record's own
// stamp of epoch 3.
func checkStamp(t *testing.T, b []byte) bool {
	e, s, v, ok := readStamp(b)
	m := shardMeta{Epoch: 3, Seq: 5}
	m.advance(b)
	want := uint64(5)
	if ok && e == 3 && s > 5 {
		want = s
	}
	if m.Epoch != 3 || m.Seq != want || (ok && len(v) != len(b)-stampLen) {
		t.Fatalf("record %x moved e3/s5 to e%d/s%d (want s%d) with %d user bytes", b, m.Epoch, m.Seq, want, len(v))
	}
	return ok
}

// checkGetResp: a read reply decodes to a value only when it says found.
func checkGetResp(t *testing.T, b []byte) bool {
	v, found, err := decodeGetResp(b)
	if err == nil && !found && len(v) != 0 {
		t.Fatalf("a missing key decoded with a %d-byte value", len(v))
	}
	return err == nil
}

func checkKV(t *testing.T, q kvReq) {
	if len(q.Key) > maxKeyLen || len(q.Value) > maxValueLen {
		t.Fatalf("decoded a %d-byte key and a %d-byte value past the caps", len(q.Key), len(q.Value))
	}
}

// checkPairs: a snapshot's pairs respect the caps, and the slice holding
// them was sized by what the message could carry, not by its count field.
func checkPairs(t *testing.T, msg []byte, pairs []snapPair) {
	if len(pairs) > maxSnapPairs || cap(pairs) > len(msg)/snapPairMinLen {
		t.Fatalf("a %d-byte message decoded to %d pairs in a slice of %d", len(msg), len(pairs), cap(pairs))
	}
	for _, kv := range pairs {
		if len(kv.Key) > maxKeyLen || len(kv.Value) > maxValueLen {
			t.Fatalf("decoded a %d-byte key and a %d-byte value past the caps", len(kv.Key), len(kv.Value))
		}
	}
}

// TestReplyDecodersRejectCutAndOverlong: every decoder accepts its own
// encoder's output, refuses every proper prefix of it (the empty message
// included) without panicking, and — where the framing is fixed — refuses
// it with a byte appended.
func TestReplyDecodersRejectCutAndOverlong(t *testing.T) {
	for _, d := range replyDecoders {
		t.Run(d.name, func(t *testing.T) {
			if !d.decode(t, d.valid) {
				t.Fatalf("the encoder's own %d bytes do not decode", len(d.valid))
			}
			for cut := 0; cut < len(d.valid); cut++ {
				if d.decode(t, d.valid[:cut:cut]) {
					t.Errorf("decoded when cut to %d of %d bytes", cut, len(d.valid))
				}
			}
			if d.fixed && d.decode(t, append(d.valid[:len(d.valid):len(d.valid)], 0)) {
				t.Error("decoded with a trailing byte")
			}
		})
	}
	// A count the message cannot back is refused, not allocated for.
	huge := encodeInstall(installReq{})
	huge[len(huge)-3] = 0x0f // 0x000f0000 pairs, under maxSnapPairs
	if _, err := decodeInstall(huge); err == nil {
		t.Error("an install naming 983040 pairs in 22 bytes decoded")
	}
}

// FuzzClusterDecoders hands arbitrary bytes to the decoders: none may
// panic, whatever one accepts stays inside the caps of wire.go, and no
// data record moves a position backwards or to another epoch's stamp.
func FuzzClusterDecoders(f *testing.F) {
	for _, d := range replyDecoders {
		f.Add(d.valid)
		f.Add(d.valid[:len(d.valid)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{stStale})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range replyDecoders {
			d.decode(t, data)
		}
	})
}
