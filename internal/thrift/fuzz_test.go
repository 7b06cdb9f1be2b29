package thrift

import (
	"bytes"
	"fmt"
	"testing"
)

// buildMessage serializes one RPC call through proto's write path: the
// message header plus a struct carrying a string, an i32, a nested
// struct and a map<string, i64> {"k": -1}. The protocols write no map
// header, so its bytes are spelled out.
func buildMessage(proto func(TTransport) TProtocol, name string, payload string) []byte {
	mb := NewTMemoryBuffer()
	p := proto(mb)
	p.WriteMessageBegin(name, CALL, 7)
	p.WriteStructBegin("args")
	p.WriteFieldBegin("payload", STRING, 1)
	p.WriteString(payload)
	p.WriteFieldEnd()
	p.WriteFieldBegin("n", I32, 2)
	p.WriteI32(42)
	p.WriteFieldEnd()
	p.WriteFieldBegin("opts", STRUCT, 3)
	p.WriteStructBegin("opts")
	p.WriteFieldBegin("flag", BOOL, 1)
	p.WriteBool(true)
	p.WriteFieldEnd()
	p.WriteFieldStop()
	p.WriteStructEnd()
	p.WriteFieldEnd()
	p.WriteFieldBegin("tags", MAP, 4)
	if _, compact := p.(*TCompactProtocol); compact {
		mb.Write([]byte{0x01, ctBinary<<4 | ctI64}) // size 1, key/value types
	} else {
		mb.Write([]byte{byte(STRING), byte(I64), 0, 0, 0, 1})
	}
	p.WriteString("k")
	p.WriteI64(-1)
	p.WriteFieldEnd()
	p.WriteFieldStop()
	p.WriteStructEnd()
	p.WriteMessageEnd()
	p.Flush()
	return mb.Bytes()
}

// drain mimics the server's read path on an incoming call: parse the
// message header, then skip the argument struct.
func drain(t *testing.T, p TProtocol, input []byte) {
	name, _, _, err := p.ReadMessageBegin()
	if err != nil {
		return
	}
	// A parsed name is backed by input bytes; it can never be longer
	// than the input. (Before ReadBinary was hardened, a lying length
	// prefix allocated the claimed size up front instead.)
	if len(name) > len(input) {
		t.Fatalf("parsed name of %d bytes from %d input bytes", len(name), len(input))
	}
	_ = Skip(p, STRUCT)
	_ = p.ReadMessageEnd()
}

// FuzzBinaryDecode throws arbitrary bytes at the strict binary
// protocol's message read path. The decoder must return errors — never
// panic, recurse without bound, or allocate proportionally to a corrupt
// length prefix.
func FuzzBinaryDecode(f *testing.F) {
	f.Add(buildMessage(func(tr TTransport) TProtocol { return NewTBinaryProtocol(tr) }, "echo", "hello"))
	f.Add([]byte{0x80, 0x01, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff}) // huge name length
	f.Add([]byte{0x80, 0x01, 0x00, 0x01})                         // truncated after version
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewTBinaryProtocol(NewTMemoryBufferWith(data))
		drain(t, p, data)
	})
}

// FuzzCompactDecode is the compact-protocol twin of FuzzBinaryDecode:
// varint lengths and delta-encoded field ids give the fuzzer a much
// denser encoding to corrupt.
func FuzzCompactDecode(f *testing.F) {
	f.Add(buildMessage(func(tr TTransport) TProtocol { return NewTCompactProtocol(tr) }, "echo", "hello"))
	f.Add([]byte{0x82, 0x21, 0x07, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge varint name length
	f.Add([]byte{0x82, 0x21})                                     // truncated after header
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewTCompactProtocol(NewTMemoryBufferWith(data))
		drain(t, p, data)
	})
}

// FuzzSkip drives Skip directly with an attacker-chosen root type —
// the path a server takes for every unknown field id. Deep nesting must
// hit the depth limit, not the goroutine stack.
func FuzzSkip(f *testing.F) {
	// 200 nested struct openings (field type STRUCT, id delta 1) —
	// rejected by maxSkipDepth rather than recursing 200 frames.
	deep := make([]byte, 0, 400)
	for i := 0; i < 200; i++ {
		deep = append(deep, 0x1c) // compact: delta 1, type struct
	}
	f.Add(deep, byte(STRUCT), true)
	f.Add([]byte{0x00}, byte(STRUCT), false)
	f.Add([]byte{0x0b, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00}, byte(STRUCT), false)
	f.Fuzz(func(t *testing.T, data []byte, typ byte, compact bool) {
		var p TProtocol
		if compact {
			p = NewTCompactProtocol(NewTMemoryBufferWith(data))
		} else {
			p = NewTBinaryProtocol(NewTMemoryBufferWith(data))
		}
		_ = Skip(p, TType(typ&0x0f))
	})
}

// FuzzReplyOwnership decodes arbitrary bytes as a run of binary fields
// twice: lent (Codec.DecodeRequest) and owned (Codec.DecodeReply). Both
// must fail at the same field with the same error and agree on every
// field before it. Every owned field must be non-nil with its capacity
// capped, and keep its bytes once the message is overwritten.
func FuzzReplyOwnership(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg []byte) {
		lent, owned := NewCodec().DecodeRequest(msg), NewCodec().DecodeReply(msg)
		var want, got [][]byte
		for {
			l, lerr := lent.ReadBinary()
			o, oerr := owned.ReadBinary()
			if fmt.Sprint(lerr) != fmt.Sprint(oerr) {
				t.Fatalf("field %d: lent read fails with %v, owned with %v", len(got), lerr, oerr)
			}
			if lerr != nil {
				break
			}
			if !bytes.Equal(l, o) || o == nil || cap(o) != len(o) {
				t.Fatalf("field %d: owned %q (cap %d, nil %t), lent %q", len(got), o, cap(o), o == nil, l)
			}
			want, got = append(want, bytes.Clone(l)), append(got, o)
		}
		clear(msg)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("owned field %d = %q once the message was overwritten, want %q", i, got[i], want[i])
			}
		}
	})
}
