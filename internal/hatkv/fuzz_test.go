package hatkv_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/sim"
	"hatrpc/internal/thrift"
)

// nopKV is a HatKV handler that does nothing: the fuzz target is the
// generated decoding in front of it.
type nopKV struct{}

func (nopKV) Get(p *sim.Proc, key string) ([]byte, error)           { return nil, nil }
func (nopKV) Put(p *sim.Proc, key string, value []byte) error       { return nil }
func (nopKV) MultiGet(p *sim.Proc, keys []string) ([][]byte, error) { return nil, nil }
func (nopKV) MultiPut(p *sim.Proc, pairs []*kvgen.KVPair) error     { return nil }

// Requests whose list cannot be trusted: a header that claims more than
// the message holds or another element type, a MultiGet key whose length
// runs past the end, and a MultiPut count one more than the pairs behind it.
const (
	lyingCount     = "80010001000000084d756c7469476574000000040f00010b7fffffff"                                           // 2³¹−1 strings, none of them there
	wrongElem      = "80010001000000084d756c7469476574000000040f00010a00000001000000000000000000"                         // list<i64> where list<string> is declared
	middleRunsPast = "80010001000000084d756c7469476574000000040f00010b000000030000000161000000ff616273656e74000000016200" // "a", then a 255-byte key where "absent" lies
	countLiesByOne = "80010001000000084d756c7469507574000000050f00010c000000030b0001000000026b310b0002000000027631000b0001000000026b320b0002000000000000"
)

// TestDecodeChecksContainerHeaders: a generated decoder sizes nothing by a
// count the message cannot back, does not parse elements of one type as
// another, and fails a list its elements do not fill; each request is
// answered with a protocol error.
func TestDecodeChecksContainerHeaders(t *testing.T) {
	proc, p := kvgen.NewHatKVProcessor(nopKV{}), new(sim.Proc)
	for _, req := range []string{lyingCount, wrongElem, middleRunsPast, countLiesByOne} {
		b, _ := hex.DecodeString(req)
		r := thrift.NewTBinaryProtocol(thrift.NewTMemoryBufferWith(proc.ProcessBytes(p, 0, b))) // dispatched by name
		_, mt, _, err := r.ReadMessageBegin()
		var ex thrift.TApplicationException
		if err != nil || mt != thrift.EXCEPTION || ex.Read(r) != nil || ex.Type != thrift.ExcProtocolError {
			t.Errorf("request %s answered with message type %d, exception %+v (err %v); want a protocol error", req, mt, ex, err)
		}
	}
}

// FuzzGeneratedDecode throws arbitrary bytes at the generated server-side
// decoders. A processor must answer — never panic — and must not let a
// count or length on the wire size an allocation the message cannot back:
// ten hostile bytes once asked the server for a 32 GiB []string.
func FuzzGeneratedDecode(f *testing.F) {
	for _, req := range []string{ // one valid request per function (TestWireGolden's)
		"8001000100000003476574000000010b000100000005757365723100",
		"8001000100000003507574000000030b00010000000575736572320b00020000000568656c6c6f00",
		"80010001000000084d756c7469476574000000040f00010b00000003000000016100000006616273656e74000000016200",
		"80010001000000084d756c7469507574000000050f00010c000000020b0001000000026b310b0002000000027631000b0001000000026b320b0002000000000000",
		lyingCount, wrongElem, middleRunsPast, countLiesByOne,
	} {
		b, err := hex.DecodeString(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint8(0))
	}
	proc, p := kvgen.NewHatKVProcessor(nopKV{}), new(sim.Proc)
	f.Fuzz(func(t *testing.T, data []byte, fnID uint8) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		proc.ProcessBytes(p, uint32(fnID%6), data)
		runtime.ReadMemStats(&after)
		// A decoded element costs at most a few words per wire byte — a
		// list<KVPair> sizes its pointers and its structs, 48 bytes, by a
		// count of at most one per byte left; the constant covers the reply
		// and the fuzzing engine's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(1<<20)); got > limit {
			t.Fatalf("%d bytes allocated decoding a %d-byte request", got, len(data))
		}
	})
}

// errCaptured ends a call once capture has the request.
var errCaptured = errors.New("captured")

// capture is a Transport that keeps the request it is handed and sends
// nothing.
type capture struct{ req []byte }

func (c *capture) Invoke(p *sim.Proc, fn string, request []byte, oneway bool) ([]byte, error) {
	c.req = append([]byte(nil), request...)
	return nil, errCaptured
}
func (c *capture) Stage() []byte { return nil }
func (c *capture) Close() error  { return nil }

// TestMultiPutDecodeAllocs: a MultiPut request decodes into one slice of
// pointers and one backing array of pairs, and each pair costs one object,
// its key (the value is a window onto the request): n + 2 objects.
func TestMultiPutDecodeAllocs(t *testing.T) {
	proc, p := kvgen.NewHatKVProcessor(nopKV{}), new(sim.Proc)
	cost := func(n int) float64 {
		pairs := make([]*kvgen.KVPair, n)
		for i := range pairs {
			pairs[i] = &kvgen.KVPair{Key: fmt.Sprintf("user%04d", i), Value: make([]byte, 64)}
		}
		tr := &capture{}
		if err := kvgen.NewHatKVClient(tr).MultiPut(p, pairs); err != errCaptured {
			t.Fatalf("MultiPut of %d pairs: %v", n, err)
		}
		proc.ProcessBytes(p, 4, tr.req)
		return testing.AllocsPerRun(50, func() { proc.ProcessBytes(p, 4, tr.req) })
	}
	empty := cost(0) // the reply, the same for every request
	for _, n := range []int{10, 100} {
		if got := cost(n) - empty; got != float64(n+2) {
			t.Errorf("decoding a %d-pair MultiPut allocates %.0f objects, want %d", n, got, n+2)
		}
	}
}

// TestNilStructIsAnError: a nil struct where the IDL declares one fails
// the call with an error instead of panicking in the caller's process,
// and nothing is sent.
func TestNilStructIsAnError(t *testing.T) {
	tr := &capture{}
	c, p := kvgen.NewHatKVClient(tr), new(sim.Proc)
	pair := &kvgen.KVPair{Key: "k", Value: []byte("v")}
	for _, pairs := range [][]*kvgen.KVPair{{nil}, {pair, nil, pair}} {
		if err := c.MultiPut(p, pairs); err == nil || err.Error() != "thrift: nil KVPair" || tr.req != nil {
			t.Errorf("MultiPut(%v) returned %v and sent %d bytes; want \"thrift: nil KVPair\" and nothing sent", pairs, err, len(tr.req))
		}
	}
}
