package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
)

// TestStoreKeyForms: the per-shard prefix and meta key a shardState keeps,
// and the data key the hot path concatenates from them, are byte-equal to
// the Sprintf forms every durable store already holds.
func TestStoreKeyForms(t *testing.T) {
	for _, shard := range []int{0, 7, 0x0fff, 0xffff} {
		if got, want := metaKey(shard), fmt.Sprintf("m:%04x", shard); got != want {
			t.Errorf("metaKey(%#x) = %q, want %q", shard, got, want)
		}
		for _, key := range [][]byte{nil, []byte("k"), bytes.Repeat([]byte{0xfe}, 255)} {
			got := dataKey(dataPrefix(shard), key)
			if want := fmt.Sprintf("u:%04x:%s", shard, key); got != want {
				t.Errorf("dataKey(shard %#x, %d-byte key) = %q, want %q", shard, len(key), got, want)
			}
		}
	}
}

// TestAppendReusesPutTail: the append a primary ships is the replicate
// header in front of the put's own key and value bytes, it decodes to the
// same key and value, and a buffer that has carried a longer append is
// reused for a shorter one without allocating.
func TestAppendReusesPutTail(t *testing.T) {
	put := appendPut(nil, putReq{Shard: 3, Epoch: 9, Key: "some-key", Value: []byte("a value")})
	q, err := decodeKV(put, false)
	if err != nil || string(q.Key) != "some-key" || string(q.Value) != "a value" || !bytes.Equal(q.Tail, put[putHdrLen:]) {
		t.Fatalf("decoded put %+v, %v", q, err)
	}
	buf := make([]byte, 0, 64)
	app := appendRepl(buf, q.Shard, q.Epoch, 2, 41, q.Tail)
	if len(app) != replHdrLen+len(q.Tail) || &app[0] != &buf[:1][0] {
		t.Errorf("append is %d bytes (want %d) or left the 64-byte buffer it was given", len(app), replHdrLen+len(q.Tail))
	}
	r, err := decodeKV(app, true)
	if err != nil || r.Shard != 3 || r.Epoch != 9 || r.Primary != 2 || r.Seq != 41 ||
		!bytes.Equal(r.Key, q.Key) || !bytes.Equal(r.Value, q.Value) {
		t.Errorf("append decoded to %+v, %v", r, err)
	}
	for cut := 0; cut < replHdrLen+2+len(q.Key); cut++ {
		if _, err := decodeKV(app[:cut], true); err == nil {
			t.Errorf("append truncated to %d bytes decoded", cut)
		}
	}
}

// putPathAllocs is what the whole simulation — the primary's handler, its
// two lanes, both backups' dispatchers, three stores and the backups'
// appliers — allocates for one warmed RF-3 128 B put handed to the
// primary's Handle. Backups acking from their log did not move it: the
// log's copy of a pair is the one the tree keeps. The parent of
// the overlap change measured 54 by the same count, 38 before a write txn
// copied each lmdb node once and each pair into one allocation, 23 before
// lmdb reused the nodes no snapshot reaches and each shard encoded its
// meta record into one buffer, 11 before the dispatcher recycled every
// request and the primary handed its backups' acks back, and 9 before an
// append became one stamped store write instead of a data and a meta pair.
const putPathAllocs = 6

func TestPutPathAllocs(t *testing.T) {
	tc := newTestCluster(t, 53, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	var got float64
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		req := appendPut(nil, putReq{Shard: 0, Epoch: 1, Key: "key-007", Value: make([]byte, 128)})
		put := func() {
			if resp := tc.nodes[prim].Handle(p, FnClusterPut, req); len(resp) != 1 || resp[0] != stOK {
				t.Fatalf("put: %v", resp)
			}
		}
		for i := 0; i < 8; i++ {
			put()
		}
		got = testing.AllocsPerRun(50, put)
	})
	tc.env.Run()
	if got > putPathAllocs {
		t.Errorf("a warmed RF-3 put allocates %.0f objects across the cluster, want ≤ %d", got, putPathAllocs)
	}
	t.Logf("warmed RF-3 put: %.0f allocations", got)
}

// encodeStatusResp renders a status reply's body alone, as decodeStatusResp
// reads it: a reply is the status byte, then this.
func encodeStatusResp(s statusResp) []byte { return appendStatusResp(nil, s) }

var statusSink []byte

// TestStatusMessagesAllocateOnce: a census request is one allocation,
// sized once. Its answer, the status byte followed by the shard's state,
// is serialized into the connection's staging region on a dispatcher and
// allocates nothing there; off a dispatcher it is one allocation.
func TestStatusMessagesAllocateOnce(t *testing.T) {
	tc := newTestCluster(t, 61, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	n := tc.nodes[prim]
	req := encodeStatus(statusReq{Shard: 0})
	st := n.shards[0]
	want := append([]byte{stOK}, encodeStatusResp(statusResp{
		Epoch: st.epoch, Seq: st.seq, LearnedEpoch: st.learnedEpoch, LearnedPrimary: int32(st.learnedPrimary),
		Promised: st.promised, Flags: flagLeads,
	})...)
	// The dispatcher-side case runs inside a handler served next to the
	// node's own, so the process it measures on is a real dispatcher.
	staged := -1.0
	tc.engs[prim].Serve("probe", func(p *sim.Proc, fn uint32, _ []byte) []byte {
		staged = testing.AllocsPerRun(20, func() { statusSink = n.Handle(p, FnShardStatus, req) })
		if !bytes.Equal(statusSink, want) || &statusSink[0] != &engine.ResponseStage(p)[:1][0] {
			t.Errorf("staged probe answer %x, want %x in the staging region", statusSink, want)
		}
		return nil
	})
	tc.env.Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		if a := testing.AllocsPerRun(20, func() { statusSink = encodeStatus(statusReq{Shard: 0}) }); a != 1 {
			t.Errorf("encodeStatus allocates %.0f objects, want 1", a)
		}
		if a := testing.AllocsPerRun(20, func() { statusSink = n.Handle(p, FnShardStatus, req) }); a != 1 {
			t.Errorf("answering a probe off a dispatcher allocates %.0f objects, want 1", a)
		}
		if !bytes.Equal(statusSink, want) || len(want) != 1+statusRespLen {
			t.Errorf("probe answered %x, want %x", statusSink, want)
		}
		c := tc.cliEng.Dial(p, tc.roster[prim], "probe")
		if _, err := c.Call(p, FnShardStatus, nil, engine.CallOpts{Proto: engine.EagerSendRecv}); err != nil {
			t.Fatal(err)
		}
	})
	tc.env.Run()
	if staged != 0 {
		t.Errorf("answering a probe on a dispatcher allocates %.0f objects, want 0", staged)
	}
}

// TestWarmedProbeAllocatesNothing: a backup's census of a live primary is
// one call — the shard's one encoded status request, answered "I lead" —
// the primary stages its answer on the dispatcher, the backup hands the
// reply back to the arena it came from, and the answer slice is the
// shard's own: a warmed census allocates nothing across the cluster.
func TestWarmedProbeAllocatesNothing(t *testing.T) {
	tc := newTestCluster(t, 71, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	backup := tc.nodes[reps[1]]
	got := -1.0
	tc.roster[reps[1]].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		st := backup.shards[0]
		stops := 0
		census := func() {
			if backup.census(p, st, reps[0], true) {
				stops++
			}
		}
		for i := 0; i < 8; i++ {
			census()
		}
		got = testing.AllocsPerRun(50, census)
		if stops != 8+51 || st.lastHeard != p.Now() {
			t.Errorf("%d of %d censuses stopped at the live primary (last word at %d ns, now %d ns)", stops, 8+51, st.lastHeard, p.Now())
		}
	})
	tc.env.Run()
	if got != 0 {
		t.Errorf("a warmed census of a live primary allocates %.0f objects across the cluster, want 0", got)
	}
}

// TestGetValueSurvivesLaterCalls: the value Client.Get returns lies in the
// reply buffer, which Get hands to its caller instead of the arena — 100
// more puts and gets on the same client, whose replies are the same size,
// leave it as it was.
func TestGetValueSurvivesLaterCalls(t *testing.T) {
	tc := newTestCluster(t, 67, 3, Config{NShards: 4, RF: 3, ProbeIntervalNs: quietProbeNs})
	tc.env.Spawn("client", func(p *sim.Proc) {
		defer tc.env.Stop()
		c := NewClient(tc.cliEng, tc.roster, tc.cfg)
		val := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d", i)) }
		if err := c.Put(p, "key-000", val(0)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(p, "key-000")
		if err != nil || !bytes.Equal(got, val(0)) {
			t.Fatalf("get: %q, %v", got, err)
		}
		for i := 1; i <= 50; i++ {
			key := fmt.Sprintf("key-%03d", i)
			if err := c.Put(p, key, val(i)); err != nil {
				t.Fatal(err)
			}
			if v, err := c.Get(p, key); err != nil || !bytes.Equal(v, val(i)) {
				t.Fatalf("get %s: %q, %v", key, v, err)
			}
		}
		if !bytes.Equal(got, val(0)) {
			t.Errorf("the first value read %q after 100 more calls, want %q", got, val(0))
		}
	})
	tc.env.Run()
}

// TestBackupAheadIsNeverOK: an append or a resync install that names a
// seq below the backup's own position is not a replay — the primary is
// behind its backup. It is counted and refused; the replay of the last
// append stays the idempotent stOK it was, and neither moves the backup.
func TestBackupAheadIsNeverOK(t *testing.T) {
	tc := newTestCluster(t, 59, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	prim, backup := reps[0], tc.nodes[reps[1]]
	reg := obs.NewRegistry()
	backup.SetObs(reg)
	ahead := reg.Counter("cluster.backup_ahead")
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		for i := 1; i <= 3; i++ {
			if resp := putAt(p, tc.nodes[prim], "k", []byte{byte(i)}); len(resp) != 1 || resp[0] != stOK {
				t.Errorf("put %d: %v", i, resp)
				return
			}
		}
		tail := appendPut(nil, putReq{Key: "k", Value: []byte("other bytes")})[putHdrLen:]
		for _, c := range []struct {
			what string
			fn   uint32
			req  []byte
			want uint8
			cnt  int64
		}{
			{"replay of the last append", FnReplicate, appendRepl(nil, 0, 1, int32(prim), 3, tail), stOK, 0},
			{"append below the backup's seq", FnReplicate, appendRepl(nil, 0, 1, int32(prim), 2, tail), stErr, 1},
			{"resync install at the backup's seq", FnInstall, encodeInstall(installReq{Epoch: 1, Primary: int32(prim), Seq: 3}), stOK, 1},
			{"resync install below the backup's seq", FnInstall, encodeInstall(installReq{Epoch: 1, Primary: int32(prim), Seq: 1}), stErr, 2},
		} {
			resp := backup.Handle(p, c.fn, c.req)
			if len(resp) != 1 || resp[0] != c.want || ahead.Value() != c.cnt {
				t.Errorf("%s answered %v with cluster.backup_ahead at %d, want [%d] and %d", c.what, resp, ahead.Value(), c.want, c.cnt)
			}
			if got := backup.shards[0].seq; got != 3 {
				t.Errorf("%s moved the backup to seq %d", c.what, got)
			}
		}
	})
	tc.env.Run()
}

// fanOutNs is the median duration of the replication fan-out on its own —
// one append shipped to both backups and both answers gathered: the hop,
// the backup's commit and the reply of the slower of two concurrent
// FnReplicate calls — on the cluster medianPutSizeNs measures.
func fanOutNs(t *testing.T, size int) int64 {
	t.Helper()
	tc := newTestCluster(t, 23, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	prim := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)[0]
	var durs []int64
	tc.roster[prim].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		n, val := tc.nodes[prim], make([]byte, size)
		for i := 0; i < 8; i++ {
			putAt(p, n, "k", val) // dials the sessions, starts the lanes
		}
		st := n.shards[0]
		st.mu.Lock(p)
		defer st.mu.Unlock()
		tail := appendPut(nil, putReq{Key: "k", Value: val})[putHdrLen:]
		for i := 0; i < 9; i++ {
			start := p.Now()
			n.ship(st, appendRepl(nil, 0, st.epoch, int32(n.self), st.seq+1, tail))
			if acks, stale := n.gather(p, st); acks != 2 || stale {
				t.Errorf("fan-out %d: %d acks, stale %v", i, acks, stale)
				return
			}
			durs = append(durs, int64(p.Now()-start))
			if err := n.applyWrite(p, st, []byte("k"), val, st.seq+1, false); err != nil {
				t.Error(err)
				return
			}
		}
	})
	tc.env.Run()
	if len(durs) == 0 {
		t.Fatal("no fan-out completed")
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// TestPutOverlapsCommitWithReplication pins the write path's cost line:
// the primary commits while its backups do, so what RF 3 adds to an
// unloaded put over RF 1 is what is left of the fan-out once the
// primary's own commit has run beside it — under 0.6 × the fan-out (a
// backup's hop is about as long as its commit). A primary that commits
// first and ships afterwards pays the whole fan-out on top (1.0 ×).
func TestPutOverlapsCommitWithReplication(t *testing.T) {
	for _, size := range []int{128, 16 << 10} {
		rf1, rf3, fan := medianPutSizeNs(t, 1, 0, size), medianPutSizeNs(t, 3, 0, size), fanOutNs(t, size)
		extra := rf3 - rf1
		t.Logf("%d B put: rf1 %d ns, rf3 %d ns, fan-out alone %d ns: RF 3 adds %.2f × the fan-out", size, rf1, rf3, fan, float64(extra)/float64(fan))
		if 10*extra > 6*fan {
			t.Errorf("%d B: RF-3 put costs %d ns over RF-1, %.2f × the replication fan-out (%d ns); want ≤ 0.6 × — "+
				"does the primary commit before it ships again?", size, extra, float64(extra)/float64(fan), fan)
		}
	}
}

// treeAckExtraNs is what RF 3 added to an unloaded put over RF 1
// (medianPutSizeNs) when a backup acked only after committing the record
// into its tree — measured on that path, by value size.
var treeAckExtraNs = map[int]int64{128: 2304, 16 << 10: 5472}

// TestBackupAcksFromTheLog pins the backup's ack path in closed form
// (DESIGN.md §15 "The backup's ack path"): an idle backup's FnReplicate
// handler takes exactly the log append — CopyPerByte × the stamped
// record's length plus CommitSyncNs — and what RF 3 adds to an unloaded put
// over RF 1 is BeginTxnNs + InsertNs less than it was on the tree-ack path.
func TestBackupAcksFromTheLog(t *testing.T) {
	costs := hatkv.DefaultBackendCosts()
	tc := newTestCluster(t, 23, 3, Config{NShards: 1, RF: 3, ProbeIntervalNs: quietProbeNs})
	reps := Replicas(tc.cfg.Seed, tc.cfg.NodeIDs, 0, 3)
	backup := tc.nodes[reps[1]]
	tc.roster[reps[1]].Spawn("driver", func(p *sim.Proc) {
		defer tc.env.Stop()
		for i, size := range []int{128, 16 << 10} {
			val := make([]byte, size)
			tail := appendPut(nil, putReq{Key: "k", Value: val})[putHdrLen:]
			start := p.Now()
			resp := backup.Handle(p, FnReplicate, appendRepl(nil, 0, 1, int32(reps[0]), uint64(i+1), tail))
			want := sim.Time(float64(len(appendStamped(nil, 1, 1, val)))*costs.CopyPerByte + float64(costs.CommitSyncNs))
			if got := p.Now() - start; len(resp) != 1 || resp[0] != stOK || got != want {
				t.Errorf("%d B append: %v after %d ns, want [stOK] after %d ns", size, resp, got, want)
			}
			p.Sleep(100_000) // the applier drains; the next append finds the store idle
		}
	})
	tc.env.Run()
	for _, size := range []int{128, 16 << 10} {
		extra := medianPutSizeNs(t, 3, 0, size) - medianPutSizeNs(t, 1, 0, size)
		if want := treeAckExtraNs[size] - costs.BeginTxnNs - costs.InsertNs; extra != want {
			t.Errorf("%d B: RF 3 adds %d ns to a put over RF 1, want %d (the tree-ack path's %d less BeginTxnNs + InsertNs)",
				size, extra, want, treeAckExtraNs[size])
		}
	}
}
