package trdma_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/thrift"
	"hatrpc/internal/trdma"
	"hatrpc/internal/ycsb"
)

// loopback is a Transport that hands each request straight to a processor
// and keeps a copy of both messages.
type loopback struct {
	proc      trdma.Processor
	ids       map[string]uint32
	req, resp []byte
}

func (l *loopback) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	l.req = append(l.req[:0], request...)
	l.resp = append(l.resp[:0], l.proc.ProcessBytes(p, l.ids[fn], request)...)
	return l.resp, nil
}
func (l *loopback) Stage() []byte { return nil }
func (l *loopback) Close() error  { return nil }

// goldenKV is a HatKV handler with fixed answers.
type goldenKV struct{}

func (goldenKV) Get(p *sim.Proc, key string) ([]byte, error) {
	if key == "absent" {
		return nil, &kvgen.KVError{Message: "hatkv: key not found"}
	}
	return []byte("value-of-" + key), nil
}
func (goldenKV) Put(p *sim.Proc, key string, value []byte) error { return nil }
func (goldenKV) MultiGet(p *sim.Proc, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if k != "absent" {
			out[i] = []byte("value-of-" + k)
		}
	}
	return out, nil
}
func (goldenKV) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error { return nil }

// TestWireGolden pins the bytes the generated stubs put on the wire: the
// request and the reply of every function of kv.hrpc and atb.hrpc, and a
// KVPair under both protocols, against hex captured before the protocols
// wrote directly into the memory buffer and the stubs reused their codec
// state.
func TestWireGolden(t *testing.T) {
	kvLoop := &loopback{proc: kvgen.NewHatKVProcessor(goldenKV{}), ids: kvgen.HatKVHints.FnIDs}
	kv := kvgen.NewHatKVClient(kvLoop)
	atbLoop := &loopback{proc: atbgen.NewATBenchProcessor(bulkEcho{}), ids: atbgen.ATBenchHints.FnIDs}
	atb := atbgen.NewATBenchClient(atbLoop)
	pairs := []*kvgen.KVPair{{Key: "k1", Value: []byte("v1")}, {Key: "k2", Value: []byte{}}}
	payload := []byte{0xde, 0xad, 0xbe, 0xef}

	cases := []struct {
		name      string
		loop      *loopback
		call      func(p *sim.Proc) error
		req, resp string
	}{
		{"Get", kvLoop, func(p *sim.Proc) error { _, err := kv.Get(p, "user1"); return err },
			"8001000100000003476574000000010b000100000005757365723100",
			"8001000200000003476574000000010b00000000000e76616c75652d6f662d757365723100"},
		{"GetAbsent", kvLoop, func(p *sim.Proc) error {
			if _, err := kv.Get(p, "absent"); err == nil {
				t.Error("Get(absent) returned no error")
			}
			return nil
		},
			"8001000100000003476574000000020b000100000006616273656e7400",
			"8001000200000003476574000000020c00010b0001000000146861746b763a206b6579206e6f7420666f756e640000"},
		{"Put", kvLoop, func(p *sim.Proc) error { return kv.Put(p, "user2", []byte("hello")) },
			"8001000100000003507574000000030b00010000000575736572320b00020000000568656c6c6f00",
			"80010002000000035075740000000300"},
		{"MultiGet", kvLoop, func(p *sim.Proc) error { _, err := kv.MultiGet(p, []string{"a", "absent", "b"}); return err },
			"80010001000000084d756c7469476574000000040f00010b00000003000000016100000006616273656e74000000016200",
			"80010002000000084d756c7469476574000000040f00000b000000030000000a76616c75652d6f662d61000000000000000a76616c75652d6f662d6200"},
		{"MultiPut", kvLoop, func(p *sim.Proc) error { return kv.MultiPut(p, pairs) },
			"80010001000000084d756c7469507574000000050f00010c000000020b0001000000026b310b0002000000027631000b0001000000026b320b0002000000000000",
			"80010002000000084d756c74695075740000000500"},
		{"Echo", atbLoop, func(p *sim.Proc) error { _, err := atb.Echo(p, payload); return err },
			"80010001000000044563686f000000010b000100000004deadbeef00",
			"80010002000000044563686f000000010b000000000004deadbeef00"},
		{"LatCall", atbLoop, func(p *sim.Proc) error { _, err := atb.LatCall(p, payload); return err },
			"80010001000000074c617443616c6c000000020b000100000004deadbeef00",
			"80010002000000074c617443616c6c000000020b000000000004deadbeef00"},
		{"TputCall", atbLoop, func(p *sim.Proc) error { _, err := atb.TputCall(p, payload); return err },
			"80010001000000085470757443616c6c000000030b000100000004deadbeef00",
			"80010002000000085470757443616c6c000000030b000000000004deadbeef00"},
	}
	env := sim.NewEnv(1)
	env.Spawn("client", func(p *sim.Proc) {
		for _, tc := range cases {
			if err := tc.call(p); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			if got := hex.EncodeToString(tc.loop.req); got != tc.req {
				t.Errorf("%s request\n got %s\nwant %s", tc.name, got, tc.req)
			}
			if got := hex.EncodeToString(tc.loop.resp); got != tc.resp {
				t.Errorf("%s reply\n got %s\nwant %s", tc.name, got, tc.resp)
			}
		}
		// A request that arrives without a function id (IPoIB) is matched
		// by the name it carries; one that cannot be dispatched or decoded
		// is answered with the same exception bytes as before.
		const nope = "80010001000000044e6f70650000000900"
		const nopeReply = "80010003000000044e6f7065000000090b000100000013756e6b6e6f776e206d6574686f64204e6f70650800020000000100"
		for _, tc := range []struct {
			name      string
			id        uint32
			req, resp string
		}{
			{"Get by name", 0, cases[0].req, cases[0].resp},
			{"unknown name", 0, nope, nopeReply},
			{"unknown id", 9, nope, nopeReply},
			{"field past the end", 1, "8001000100000003476574000000010b0001000000ff757365723100",
				"8001000300000003476574000000010b00010000000e756e657870656374656420454f460800020000000700"},
			{"truncated header", 1, "80010001000000034765",
				"8001000300000000000000000b00010000000e756e657870656374656420454f460800020000000700"},
		} {
			req, _ := hex.DecodeString(tc.req)
			if got := hex.EncodeToString(kvLoop.proc.ProcessBytes(p, tc.id, req)); got != tc.resp {
				t.Errorf("%s reply\n got %s\nwant %s", tc.name, got, tc.resp)
			}
		}
	})
	env.Run()

	for _, tc := range []struct {
		name string
		mk   func(thrift.TTransport) thrift.TProtocol
		want string
	}{
		{"binary", func(tr thrift.TTransport) thrift.TProtocol { return thrift.NewTBinaryProtocol(tr) },
			"0b0001000000026b310b000200000002763100"},
		{"compact", func(tr thrift.TTransport) thrift.TProtocol { return thrift.NewTCompactProtocol(tr) },
			"18026b311802763100"},
	} {
		buf := thrift.NewTMemoryBuffer()
		if err := pairs[0].Write(tc.mk(buf)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("KVPair %s\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// allocsIn runs body as a client process of a fresh two-node cluster and
// returns what it returns.
func allocsIn(t *testing.T, serve func(srv *engine.Engine), body func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64) float64 {
	t.Helper()
	env, cl := newCluster(11)
	serve(engine.New(cl.Node(0), engine.DefaultConfig()))
	cliEng := engine.New(cl.Node(1), engine.DefaultConfig())
	var allocs float64
	env.Spawn("client", func(p *sim.Proc) {
		allocs = body(p, cliEng, cl.Node(0))
		env.Stop()
	})
	env.Run()
	return allocs
}

// warmed runs call a few times, then counts the allocations of one more.
func warmed(call func()) float64 {
	for i := 0; i < 8; i++ {
		call()
	}
	return testing.AllocsPerRun(50, call)
}

// TestStubSteadyStateAllocs is the cost gate of the generated request path
// (PAPER §4.3: the stub adds "only passing the pointer and caching the RPC
// function type"): a warmed 512 B Echo through the generated client and
// processor allocates at most two objects more than the raw Conn.Call it
// wraps — the caller's copy of the reply is one — and HatKV's read path
// is pinned at what is left: the reply's one backing array and its slice
// of values, the server's slice of keys with the one allocation their
// strings share, and its slice of results — as many at 100 keys as at 10.
func TestStubSteadyStateAllocs(t *testing.T) {
	payload := make([]byte, 512)
	framed := make([]byte, len(payload)+28) // an Echo message around the payload
	var opts engine.CallOpts
	stub := allocsIn(t, func(srv *engine.Engine) {
		trdma.NewServer(srv, atbgen.ATBenchHints, atbgen.NewATBenchProcessor(bulkEcho{}))
	}, func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64 {
		tr := trdma.Dial(p, cli, server, atbgen.ATBenchHints, nil)
		opts = tr.Plan("Echo")
		c := atbgen.NewATBenchClient(tr)
		return warmed(func() {
			if got, err := c.Echo(p, payload); err != nil || len(got) != len(payload) {
				t.Fatalf("Echo returned %d bytes, err %v", len(got), err)
			}
		})
	})
	raw := allocsIn(t, func(srv *engine.Engine) {
		srv.Serve("raw", func(p *sim.Proc, fn uint32, req []byte) []byte { return framed })
	}, func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64 {
		conn := cli.Dial(p, server, "raw")
		return warmed(func() {
			resp, err := conn.Call(p, 1, framed, opts)
			if err != nil {
				t.Fatal(err)
			}
			conn.Recycle(resp)
		})
	})
	if stub > raw+2 {
		t.Errorf("a 512 B Echo allocates %.0f objects through the generated stub, %.0f as a raw Conn.Call: the stub may add 2", stub, raw)
	}

	// A request without a function id (IPoIB) is dispatched by comparing
	// the name where it lies in the request: that costs no object either.
	proc, idle := atbgen.NewATBenchProcessor(bulkEcho{}), new(sim.Proc)
	echoReq, _ := hex.DecodeString("80010001000000044563686f000000010b000100000004deadbeef00")
	byID := warmed(func() { proc.ProcessBytes(idle, 1, echoReq) })
	if byName := warmed(func() { proc.ProcessBytes(idle, 0, echoReq) }); byName != byID {
		t.Errorf("dispatch by name allocates %.0f objects, by id %.0f", byName, byID)
	}

	const records = 128
	batches := []int{10, 100}
	var get float64
	mget := make([]float64, len(batches))
	allocsIn(t, func(srv *engine.Engine) {
		store, err := hatkv.NewStore(srv.Node(), hatkv.FunctionHints(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Preload(records, ycsb.Key, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		hatkv.Serve(srv, hatkv.FunctionHints(), store)
	}, func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64 {
		c := kvgen.NewHatKVClient(trdma.Dial(p, cli, server, hatkv.FunctionHints(), nil))
		key := ycsb.Key(3)
		get = warmed(func() {
			if v, err := c.Get(p, key); err != nil || len(v) != 1000 {
				t.Fatalf("Get returned %d bytes, err %v", len(v), err)
			}
		})
		for i, batch := range batches {
			keys := make([]string, batch)
			for j := range keys {
				keys[j] = ycsb.Key(j)
			}
			mget[i] = warmed(func() {
				if vs, err := c.MultiGet(p, keys); err != nil || len(vs) != batch {
					t.Fatalf("MultiGet returned %d values, err %v", len(vs), err)
				}
			})
		}
		return 0
	})
	// Get: the server decodes one key string, the caller gets one copy of
	// the value. MultiGet, at any batch size: the server decodes the keys
	// into one slice and one allocation for all their strings, and gathers
	// the stored values into another slice; the caller gets one backing
	// array under one slice of values.
	if max := raw + 2; get > max {
		t.Errorf("HatKV Get allocates %.0f objects, want at most %.0f", get, max)
	}
	for i, batch := range batches {
		if max := raw + 5; mget[i] > max {
			t.Errorf("HatKV %d-key MultiGet allocates %.0f objects, want at most %.0f", batch, mget[i], max)
		}
	}
	if mget[0] != mget[1] {
		t.Errorf("a %d-key MultiGet allocates %.0f objects, a %d-key one %.0f: the count grows with the batch",
			batches[0], mget[0], batches[1], mget[1])
	}
	t.Logf("allocs/op: raw Conn.Call %.0f, Echo %.0f, Get %.0f, MultiGet %v (batches %v)", raw, stub, get, mget, batches)
}

// TestReplyValuesAreCallerOwned: what a generated client returns never
// aliases transport memory — the response buffer goes back to the engine's
// arena at the next call and is overwritten by later deliveries — and the
// values of one reply, which share an allocation, cannot reach each other.
func TestReplyValuesAreCallerOwned(t *testing.T) {
	const records = 32
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 200+i) }
	allocsIn(t, func(srv *engine.Engine) {
		store, err := hatkv.NewStore(srv.Node(), hatkv.FunctionHints(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := store.Preload(1, func(int) string { return ycsb.Key(i) }, value(i)); err != nil {
				t.Fatal(err)
			}
		}
		hatkv.Serve(srv, hatkv.FunctionHints(), store)
	}, func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64 {
		c := kvgen.NewHatKVClient(trdma.Dial(p, cli, server, hatkv.FunctionHints(), nil))
		keys := []string{ycsb.Key(3), ycsb.Key(4), ycsb.Key(5), "absent", ycsb.Key(6)}
		want := [][]byte{value(3), value(4), value(5), {}, value(6)}
		one, err := c.Get(p, ycsb.Key(7))
		if err != nil {
			t.Fatal(err)
		}
		many, err := c.MultiGet(p, keys)
		if err != nil || len(many) != len(keys) {
			t.Fatalf("MultiGet returned %d values, err %v", len(many), err)
		}
		for i := 0; i < 100; i++ { // same sizes, other bytes: the arena hands the same buffers out again
			if _, err := c.Get(p, ycsb.Key(8+i%8)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.MultiGet(p, []string{ycsb.Key(20), ycsb.Key(21), ycsb.Key(22), "absent", ycsb.Key(23)}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(one, value(7)) {
			t.Error("a Get result changed under later calls on the same client")
		}
		for i := range many {
			if !bytes.Equal(many[i], want[i]) {
				t.Errorf("MultiGet result %d changed under later calls on the same client", i)
			}
		}
		for i := 0; i+1 < len(many); i++ {
			_ = append(many[i], 0xEE)
			if !bytes.Equal(many[i+1], want[i+1]) {
				t.Errorf("append on MultiGet result %d wrote into result %d", i, i+1)
			}
		}
		return 0
	})
}

// rawEcho is a Processor that answers every request with its own bytes.
type rawEcho struct{}

func (rawEcho) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte { return req }

// TestReplyOutlivesOtherTransportsCalls: the bytes Invoke returns are the
// caller's until that transport's next Invoke — not until the engine's next
// delivery. Two transports of one client engine share its node's arena, so
// a reply recycled as soon as it is returned is the buffer the other
// transport's reply lands in: A's reply must still read as A's bytes after
// B's call, of the same size and other content, has been delivered.
func TestReplyOutlivesOtherTransportsCalls(t *testing.T) {
	for _, size := range []int{96, 2048, 40 << 10} { // inline eager, eager, rendezvous-sized
		allocsIn(t, func(srv *engine.Engine) {
			trdma.NewServer(srv, atbgen.ATBenchHints, rawEcho{})
		}, func(p *sim.Proc, cli *engine.Engine, server *simnet.Node) float64 {
			a := trdma.Dial(p, cli, server, atbgen.ATBenchHints, nil)
			b := trdma.Dial(p, cli, server, atbgen.ATBenchHints, nil)
			for round := 0; round < 4; round++ {
				reqA := bytes.Repeat([]byte{byte(0xA0 + round)}, size)
				reqB := bytes.Repeat([]byte{byte(0xB0 + round)}, size)
				replyA, err := a.Invoke(p, "Echo", reqA, false)
				if err != nil || !bytes.Equal(replyA, reqA) {
					t.Fatalf("%d B round %d: A's echo returned %d bytes, err %v", size, round, len(replyA), err)
				}
				if replyB, err := b.Invoke(p, "Echo", reqB, false); err != nil || !bytes.Equal(replyB, reqB) {
					t.Fatalf("%d B round %d: B's echo returned %d bytes, err %v", size, round, len(replyB), err)
				}
				if !bytes.Equal(replyA, reqA) {
					t.Errorf("%d B round %d: A's reply changed when B's next reply was delivered: it was recycled while A still held it", size, round)
				}
			}
			return 0
		})
	}
}
