package cluster

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// errCaptured ends a call once capture has the request.
var errCaptured = errors.New("captured")

// capture is a Transport that keeps the request it is handed and answers
// with reply, or with errCaptured when there is none.
type capture struct{ req, reply []byte }

func (c *capture) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	c.req = append(c.req[:0], request...)
	if c.reply == nil {
		return nil, errCaptured
	}
	return c.reply, nil
}
func (c *capture) Stage() []byte { return nil }
func (c *capture) Close() error  { return nil }

// sample answers every verb with a fixed, non-empty result, so the
// replies it makes exercise each result's decoder.
type sample struct{}

func (sample) ShardMap(*sim.Proc) (gen.Routes, error) {
	return gen.Routes(*NewShardMap(7, []int{0, 1, 2, 3, 4}, 8, 3)), nil
}
func (sample) Put(*sim.Proc, int32, int64, []byte, []byte) error   { return nil }
func (sample) Get(*sim.Proc, int32, int64, []byte) ([]byte, error) { return []byte("value"), nil }
func (sample) Replicate(*sim.Proc, int32, int64, int32, int64, []byte, []byte) error {
	return &gen.Stale{Epoch: 9, Primary: 2}
}
func (sample) Census(*sim.Proc, int32) (gen.ShardStatus, error) {
	return gen.ShardStatus{Epoch: 3, Seq: 7, LearnedEpoch: 4, LearnedPrimary: 1, Promised: 5, Leads: true, Heard: true}, nil
}
func (sample) Prepare(*sim.Proc, int32, int64, bool) (gen.ShardStatus, error) {
	return gen.ShardStatus{Epoch: 3, Seq: 7, LearnedEpoch: 4, LearnedPrimary: 1, Promised: 8}, nil
}
func (sample) Pull(*sim.Proc, int32) (gen.Snapshot, error) {
	return gen.Snapshot{Epoch: 4, Seq: 11, Pairs: []*gen.Pair{{Key: []byte("u:0000:k"), Value: []byte("v")}, {Key: []byte("u:0000:l")}}}, nil
}
func (sample) Install(*sim.Proc, int32, int64, int32, int64, []*gen.Pair) error { return errFenced }

// calls invokes each verb once on c, in wire-id order.
var calls = []func(p *sim.Proc, c *gen.ClusterClient) error{
	func(p *sim.Proc, c *gen.ClusterClient) error { _, err := c.ShardMap(p); return err },
	func(p *sim.Proc, c *gen.ClusterClient) error {
		return c.Put(p, 3, 2, []byte("some-key"), []byte("a value"))
	},
	func(p *sim.Proc, c *gen.ClusterClient) error {
		_, err := c.Get(p, 3, 2, []byte("some-key"))
		return err
	},
	func(p *sim.Proc, c *gen.ClusterClient) error {
		return c.Replicate(p, 3, 2, 1, 40, []byte("some-key"), []byte("a value"))
	},
	func(p *sim.Proc, c *gen.ClusterClient) error { _, err := c.Census(p, 3); return err },
	func(p *sim.Proc, c *gen.ClusterClient) error { _, err := c.Prepare(p, 3, 8, true); return err },
	func(p *sim.Proc, c *gen.ClusterClient) error { _, err := c.Pull(p, 3); return err },
	func(p *sim.Proc, c *gen.ClusterClient) error {
		pairs := []*gen.Pair{{Key: []byte("u:0001:a"), Value: []byte("va")}, {Key: []byte("u:0001:b")}}
		return c.Install(p, 1, 2, 1, 9, pairs)
	},
}

// checkStamp reads b as a stored data record: folded into an epoch-3
// position at seq 5 it never lowers it or changes its epoch, and raises it
// only to the record's own stamp of epoch 3.
func checkStamp(t *testing.T, b []byte) bool {
	e, s, v, ok := readStamp(b)
	m := shardMeta{Epoch: 3, Seq: 5}
	m.advance(b)
	want := int64(5)
	if ok && e == 3 && s > 5 {
		want = s
	}
	if m.Epoch != 3 || m.Seq != want || (ok && len(v) != len(b)-stampLen) {
		t.Fatalf("record %x moved e3/s5 to e%d/s%d (want s%d) with %d user bytes", b, m.Epoch, m.Seq, want, len(v))
	}
	return ok
}

// TestStampedRecordCuts: a stored record cut inside its stamp reads as no
// record and leaves a position as it was; the stamp alone, or with user
// bytes behind it, reads whole.
func TestStampedRecordCuts(t *testing.T) {
	_, rec := dataPair("", nil, 3, 9, []byte("value"))
	for cut := 0; cut <= len(rec); cut++ {
		if ok := checkStamp(t, rec[:cut:cut]); ok != (cut >= stampLen) {
			t.Errorf("a record cut to %d of %d bytes read ok=%v", cut, len(rec), ok)
		}
	}
}

// FuzzClusterDecoders throws arbitrary bytes at the cluster's decoders:
// the generated processor (as a request for the verb fnID names; 0
// dispatches by the name the message carries), the generated client (as
// that verb's reply), DecodeShardMap and readStamp. None may panic, no
// count or length on the wire may size an allocation the message cannot
// back, and no stored record moves a position backwards or to another
// epoch's stamp.
func FuzzClusterDecoders(f *testing.F) {
	p := new(sim.Proc)
	proc := gen.NewClusterProcessor(sample{})
	for i, call := range calls {
		tr := &capture{}
		if err := call(p, gen.NewClusterClient(tr)); err != errCaptured {
			f.Fatal(err)
		}
		req, id := tr.req, uint8(i+1)
		reply := proc.ProcessBytes(p, uint32(id), req)
		f.Add(req, id)                                      // a valid request
		f.Add(reply, id)                                    // its reply
		f.Add(req[:len(req)-1], id)                         // truncated
		f.Add(append(req[:len(req):len(req)], 0), uint8(0)) // trailing garbage, dispatched by name
	}
	m := NewShardMap(3, []int{0, 1}, 2, 1)
	m.Shards[1].Epoch = 1 << 40
	f.Add(m.Encode(), uint8(1))
	// Lying counts: a shard map of 2³¹−1 routes in ten bytes, and an
	// Install of 2³¹−1 pairs after its scalars.
	f.Add([]byte{0x0f, 0x00, 0x01, 0x0c, 0x7f, 0xff, 0xff, 0xff, 0x00, 0x00}, uint8(1))
	f.Add([]byte("\x80\x01\x00\x01\x00\x00\x00\x07Install\x00\x00\x00\x01\x0f\x00\x05\x0c\x7f\xff\xff\xff\x00"), uint8(8))
	f.Add([]byte{}, uint8(0))
	_, stamp := dataPair("", nil, 3, 9, nil)
	f.Add(stamp, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, fnID uint8) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		proc.ProcessBytes(p, uint32(fnID)%uint32(len(calls)+2), data)
		calls[(int(fnID)+len(calls)-1)%len(calls)](p, gen.NewClusterClient(&capture{reply: data})) // verb fnID, 0 as the last
		if m, err := DecodeShardMap(data); err == nil {
			m.Encode()
		}
		checkStamp(t, data)
		runtime.ReadMemStats(&after)
		// A decoded element costs at most a few words per wire byte — a
		// route of the shard map is a pointer, its struct and its replica
		// list, each sized by a count of at most one per byte left; the constant
		// covers the replies and the fuzzing engine's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+(1<<20)); got > limit {
			t.Fatalf("%d bytes allocated decoding %d bytes as verb %d", got, len(data), fnID)
		}
	})
}

// FuzzShardMapDecode checks the shard-map codec against arbitrary bytes:
// DecodeShardMap rejects malformed, truncated or over-long buffers without
// panicking, and every map it accepts re-encodes to bytes that decode to
// the same routes (an absent replica list reads as an empty one) and
// encode to themselves, so a client's merge and a node's re-serve never
// drift from what travelled the wire.
func FuzzShardMapDecode(f *testing.F) {
	f.Add(NewShardMap(7, []int{0, 1, 2, 3, 4}, 8, 3).Encode())
	m := NewShardMap(3, []int{0, 1}, 2, 1)
	m.Shards[1].Epoch = 1 << 40
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x0f, 0x00, 0x01, 0x0c, 0x00, 0x00, 0x00, 0x01})             // count 1, no route body
	f.Add([]byte{0x0f, 0x00, 0x01, 0x0c, 0x7f, 0xff, 0xff, 0xff, 0x00, 0x00}) // count past the message
	f.Add(m.Encode()[:len(m.Encode())-1])                                     // truncated tail
	f.Add(append(m.Encode(), 0x00))                                           // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		dm, err := DecodeShardMap(data)
		if err != nil {
			return
		}
		out := dm.Encode()
		again, err := DecodeShardMap(out)
		if err != nil {
			t.Fatalf("the re-encoding of %x does not decode: %v", data, err)
		}
		same := len(again.Shards) == len(dm.Shards)
		for i := 0; same && i < len(dm.Shards); i++ {
			a, b := again.Shards[i], dm.Shards[i]
			same = a.Epoch == b.Epoch && a.Primary == b.Primary && slices.Equal(a.Replicas, b.Replicas)
		}
		if !same {
			t.Fatalf("round trip changed the map:\n in:  %+v\n out: %+v", dm, again)
		}
		if out2 := again.Encode(); !bytes.Equal(out2, out) {
			t.Fatalf("encoding is not a fixed point:\n first:  %x\n second: %x", out, out2)
		}
	})
}

// TestRepliesRejectEveryCut: each verb's generated client accepts the
// reply the processor makes and refuses every proper prefix of it, the
// empty reply included — a cut reply is never a shorter value, a missing
// key or an ack.
func TestRepliesRejectEveryCut(t *testing.T) {
	p := new(sim.Proc)
	proc := gen.NewClusterProcessor(sample{})
	for i, call := range calls {
		tr := &capture{}
		call(p, gen.NewClusterClient(tr))
		reply := proc.ProcessBytes(p, uint32(i+1), tr.req)
		name := string(reply[8 : 8+int(reply[7])]) // the verb's name, from the message header
		t.Run(name, func(t *testing.T) {
			if err := call(p, gen.NewClusterClient(&capture{reply: reply})); outcome(err) == "error" {
				t.Fatalf("the processor's own %d-byte reply does not decode: %v", len(reply), err)
			}
			for cut := 0; cut < len(reply); cut++ {
				if err := call(p, gen.NewClusterClient(&capture{reply: reply[:cut:cut]})); outcome(err) != "error" {
					t.Errorf("decoded as %q when cut to %d of %d bytes", outcome(err), cut, len(reply))
				}
			}
		})
	}
}

// router is a cluster node that routes every data call elsewhere: a put or
// a get is answered Stale at (staleEpoch, stalePrimary), or Fenced when
// fenced is set, which sends the client to refresh its map; every route of
// the map it serves is at (mapEpoch, mapPrimary).
type router struct {
	sample
	staleEpoch, mapEpoch     int64
	stalePrimary, mapPrimary int32
	fenced                   bool
}

func (r router) refusal() error {
	if r.fenced {
		return &gen.Fenced{}
	}
	return &gen.Stale{Epoch: r.staleEpoch, Primary: r.stalePrimary}
}
func (r router) Put(*sim.Proc, int32, int64, []byte, []byte) error { return r.refusal() }
func (r router) Get(*sim.Proc, int32, int64, []byte) ([]byte, error) {
	return nil, r.refusal()
}
func (r router) ShardMap(*sim.Proc) (gen.Routes, error) {
	rs := gen.Routes(*NewShardMap(7, []int{0, 1, 2}, 4, 3))
	for _, route := range rs.Shards {
		route.Epoch, route.Primary = r.mapEpoch, r.mapPrimary
	}
	return rs, nil
}

// FuzzClientRouting serves a Client from three nodes that answer its puts
// and gets with arbitrary Stale routing, or fence them and serve arbitrary
// shard maps. Whatever a reply names, the client must exhaust its attempt
// budget with an error rather than panic: a primary outside the roster is a
// malformed reply, not an index into it. Nor may a reply move the view out
// of the epochs it knows: each stays between the bootstrap's 1 and the
// largest epoch a node named, so an epoch below the view's own, negative
// ones included, is refused.
func FuzzClientRouting(f *testing.F) {
	f.Add(int64(2), int32(1), int64(2), int32(2), false) // well-formed: rerouted within the roster
	f.Add(int64(2), int32(1), int64(2), int32(2), true)
	f.Add(int64(2), int32(3), int64(1), int32(0), false) // Stale past the roster's end
	f.Add(int64(9), int32(-1), int64(1), int32(0), false)
	f.Add(int64(1), int32(0), int64(5), int32(3), true) // a map routing past the roster's end
	f.Add(int64(1), int32(0), int64(-1), int32(-7), true)
	f.Add(int64(-1), int32(1), int64(1), int32(0), false) // a negative epoch to a roster primary: Stale
	f.Add(int64(1), int32(0), int64(-1), int32(2), true)  // and in a map
	f.Fuzz(func(t *testing.T, staleEpoch int64, stalePrimary int32, mapEpoch int64, mapPrimary int32, fenced bool) {
		env := sim.NewEnv(1)
		cl := simnet.NewCluster(env, simnet.Config{Nodes: 4, Cores: 4, Sockets: 1, LinkGbps: 100, PropDelayNs: 600})
		stub := router{staleEpoch: staleEpoch, stalePrimary: stalePrimary, mapEpoch: mapEpoch, mapPrimary: mapPrimary, fenced: fenced}
		var roster []*simnet.Node
		for i := 0; i < 3; i++ {
			roster = append(roster, cl.Node(i))
			engine.New(cl.Node(i), engine.DefaultConfig()).Serve(Port, gen.NewClusterProcessor(stub).ProcessBytes)
		}
		c := NewClient(engine.New(cl.Node(3), engine.DefaultConfig()), roster, Config{Seed: 7, NodeIDs: []int{0, 1, 2}, NShards: 4, RF: 3})
		env.Spawn("client", func(p *sim.Proc) {
			defer env.Stop()
			if err := c.Put(p, "key", []byte("value")); err == nil {
				t.Error("a put every replica refuses succeeded")
			}
			if _, err := c.Get(p, "key"); err == nil {
				t.Error("a get every replica refuses succeeded")
			}
			for i, r := range c.View().Shards {
				if top := max(1, staleEpoch, mapEpoch); r.Epoch < 1 || r.Epoch > top {
					t.Errorf("shard %d routed at epoch %d, outside [1, %d]", i, r.Epoch, top)
				}
			}
		})
		env.Run()
	})
}
