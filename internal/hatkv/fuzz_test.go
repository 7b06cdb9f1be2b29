package hatkv_test

import (
	"encoding/hex"
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

// MultiGet requests whose list header cannot be trusted.
const (
	lyingCount = "80010001000000084d756c7469476574000000040f00010b7fffffff"                   // 2³¹−1 strings, none of them there
	wrongElem  = "80010001000000084d756c7469476574000000040f00010a00000001000000000000000000" // list<i64> where list<string> is declared
)

// TestDecodeChecksContainerHeaders: a generated decoder sizes nothing by a
// count the message cannot back, and does not parse elements of one type as
// another; either request is answered with a protocol error.
func TestDecodeChecksContainerHeaders(t *testing.T) {
	proc, p := kvgen.NewHatKVProcessor(nopKV{}), new(sim.Proc)
	for _, req := range []string{lyingCount, wrongElem} {
		b, _ := hex.DecodeString(req)
		r := thrift.NewTBinaryProtocol(thrift.NewTMemoryBufferWith(proc.ProcessBytes(p, 3, b)))
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
		lyingCount, wrongElem,
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
		// A decoded element costs at most a few words per wire byte; the
		// constant covers the reply and the fuzzing engine's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(1<<20)); got > limit {
			t.Fatalf("%d bytes allocated decoding a %d-byte request", got, len(data))
		}
	})
}
