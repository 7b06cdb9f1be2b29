package thrift

import (
	"bytes"
	"testing"
)

// codecRoundTrip writes a representative eager-path message body (every
// fixed-width primitive the protocols write, plus a binary field) into the
// memory buffer the generated code and trdma serialize through and reads
// it back, returning an error message on mismatch. It allocates nothing once the buffer is
// warm — the property TestEagerPathZeroAllocs gates.
func codecRoundTrip(mem *TMemoryBuffer, w, r TProtocol, blob []byte) string {
	mem.Reset()
	w.WriteStructBegin()
	w.WriteFieldBegin(BOOL, 1)
	w.WriteBool(true)
	w.WriteFieldBegin(BYTE, 2)
	w.WriteI8(-5)
	w.WriteFieldBegin(I32, 4)
	w.WriteI32(123456789)
	w.WriteFieldBegin(I64, 5)
	w.WriteI64(-987654321012345)
	w.WriteFieldBegin(STRING, 7)
	w.WriteBinary(blob)
	w.WriteFieldStop()
	w.WriteStructEnd()

	r.ReadStructBegin()
	for {
		ft, id, err := r.ReadFieldBegin()
		if err != nil {
			return "read field: " + err.Error()
		}
		if ft == STOP {
			break
		}
		switch id {
		case 1:
			if v, _ := r.ReadBool(); !v {
				return "bool mismatch"
			}
		case 2:
			if v, _ := r.ReadI8(); v != -5 {
				return "i8 mismatch"
			}
		case 4:
			if v, _ := r.ReadI32(); v != 123456789 {
				return "i32 mismatch"
			}
		case 5:
			if v, _ := r.ReadI64(); v != -987654321012345 {
				return "i64 mismatch"
			}
		case 7:
			v, err := r.ReadBinary()
			if err != nil || !bytes.Equal(v, blob) {
				return "binary mismatch"
			}
		}
	}
	r.ReadStructEnd()
	return ""
}

// codecPair builds a binary or compact codec over one memory buffer:
// distinct writer/reader protocol instances, as on a real connection, the
// reader lending its binary fields as Codec.DecodeRequest does for a
// generated server.
func codecPair(compact bool) (*TMemoryBuffer, TProtocol, TProtocol) {
	mem := &TMemoryBuffer{own: ownLent}
	if compact {
		return mem, NewTCompactProtocol(mem), NewTCompactProtocol(mem)
	}
	return mem, NewTBinaryProtocol(mem), NewTBinaryProtocol(mem)
}

// TestEagerPathZeroAllocs is the allocs/op regression gate for the
// serialization hot path (CI runs it by name): once the buffer is warm, a
// full write+read round trip of every fixed-width primitive plus a binary
// field, read as a generated server reads it, performs ZERO heap
// allocations per op, for both wire protocols. String reads are excluded
// by design: a decoded string is a copy its reader keeps, one allocation
// per ReadString and one per whole list for ReadStrings
// (TestReadStringsAllocateOncePerList); generated code that wants the
// zero-alloc path uses binary fields.
func TestEagerPathZeroAllocs(t *testing.T) {
	blob := []byte("0123456789abcdef0123456789abcdef")
	for _, tc := range []struct {
		name    string
		compact bool
	}{{"binary", false}, {"compact", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mem, w, r := codecPair(tc.compact)
			// Warm: grows the buffer once.
			for i := 0; i < 3; i++ {
				if msg := codecRoundTrip(mem, w, r, blob); msg != "" {
					t.Fatal(msg)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if msg := codecRoundTrip(mem, w, r, blob); msg != "" {
					t.Fatal(msg)
				}
			})
			if allocs != 0 {
				t.Fatalf("eager-path codec round trip allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkCodecRoundTrip reports allocs/op for the codec round
// trip (the number the zero-alloc gate pins at 0).
func BenchmarkCodecRoundTrip(b *testing.B) {
	blob := []byte("0123456789abcdef0123456789abcdef")
	for _, tc := range []struct {
		name    string
		compact bool
	}{{"binary", false}, {"compact", true}} {
		b.Run(tc.name, func(b *testing.B) {
			mem, w, r := codecPair(tc.compact)
			for i := 0; i < 3; i++ {
				codecRoundTrip(mem, w, r, blob)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if msg := codecRoundTrip(mem, w, r, blob); msg != "" {
					b.Fatal(msg)
				}
			}
		})
	}
}

// replyMessage serializes a REPLY whose result is n binary values of size
// bytes each: one binary field when n is 1 (an echo's reply), else a
// list<binary> (a MultiGet's).
func replyMessage(n, size int) []byte {
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	w.WriteMessageBegin("Call", REPLY, 1)
	value := bytes.Repeat([]byte{0x5A}, size)
	if n == 1 {
		w.WriteFieldBegin(STRING, 0)
		w.WriteBinary(value)
	} else {
		w.WriteFieldBegin(LIST, 0)
		w.WriteListBegin(STRING, n)
		for range n {
			w.WriteBinary(value)
		}
	}
	w.WriteFieldStop()
	return mem.Bytes()
}

var decodedSink []byte

// BenchmarkDecodeReply times a client's decode of a reply's binary values
// (Codec.DecodeReply): echo_bulk's one 128 KB field, and kv_read's
// MultiGet shape, a list of ten 1 000-byte values.
func BenchmarkDecodeReply(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n, size int
	}{{"128KB", 1, 128 << 10}, {"MultiGet10x1000", 10, 1000}} {
		b.Run(tc.name, func(b *testing.B) {
			msg, c := replyMessage(tc.n, tc.size), NewCodec()
			b.SetBytes(int64(tc.n * tc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := c.DecodeReply(msg)
				r.ReadMessageBegin()
				r.ReadFieldBegin()
				if tc.n > 1 {
					r.ReadListBegin()
				}
				for range tc.n {
					v, err := r.ReadBinary()
					if err != nil || len(v) != tc.size {
						b.Fatalf("value of %d bytes, %v", len(v), err)
					}
					decodedSink = v
				}
			}
		})
	}
}
