package thrift

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// protoFactories enumerates both wire protocols so every test runs under
// each.
var protoFactories = map[string]func(TTransport) TProtocol{
	"binary":  func(t TTransport) TProtocol { return NewTBinaryProtocol(t) },
	"compact": func(t TTransport) TProtocol { return NewTCompactProtocol(t) },
}

func TestPrimitiveRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			w.WriteBool(true)
			w.WriteBool(false)
			w.WriteI8(-7)
			w.WriteI32(2_000_000_000)
			w.WriteI64(-9e15)
			w.WriteString("héllo wörld")
			w.WriteBinary([]byte{0, 1, 2, 255})

			r := mk(buf)
			if v, _ := r.ReadBool(); !v {
				t.Error("bool1")
			}
			if v, _ := r.ReadBool(); v {
				t.Error("bool2")
			}
			if v, _ := r.ReadI8(); v != -7 {
				t.Errorf("byte = %d", v)
			}
			if v, _ := r.ReadI32(); v != 2_000_000_000 {
				t.Errorf("i32 = %d", v)
			}
			if v, _ := r.ReadI64(); v != -9e15 {
				t.Errorf("i64 = %d", v)
			}
			if v, _ := r.ReadString(); v != "héllo wörld" {
				t.Errorf("string = %q", v)
			}
			if v, _ := r.ReadBinary(); len(v) != 4 || v[3] != 255 {
				t.Errorf("binary = %v", v)
			}
		})
	}
}

func TestMessageHeaderRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			w.WriteMessageBegin("Echo.Ping", CALL, 42)
			r := mk(buf)
			name2, typ, seq, err := r.ReadMessageBegin()
			check(t, err)
			if name2 != "Echo.Ping" || typ != CALL || seq != 42 {
				t.Fatalf("header = %q %v %d", name2, typ, seq)
			}
		})
	}
}

func TestStructWithFieldsRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			w.WriteStructBegin()
			w.WriteFieldBegin(BOOL, 1)
			w.WriteBool(true)
			w.WriteFieldBegin(I32, 2)
			w.WriteI32(99)
			w.WriteFieldBegin(I64, 500) // long-form field id
			w.WriteI64(1)
			w.WriteFieldStop()
			w.WriteStructEnd()

			r := mk(buf)
			r.ReadStructBegin()
			ft, id, err := r.ReadFieldBegin()
			check(t, err)
			if ft != BOOL || id != 1 {
				t.Fatalf("field1 = %v %d", ft, id)
			}
			if v, _ := r.ReadBool(); !v {
				t.Error("bool field value")
			}
			ft, id, err = r.ReadFieldBegin()
			check(t, err)
			if ft != I32 || id != 2 {
				t.Fatalf("field2 = %v %d", ft, id)
			}
			if v, _ := r.ReadI32(); v != 99 {
				t.Error("i32 field value")
			}
			ft, id, err = r.ReadFieldBegin()
			check(t, err)
			if ft != I64 || id != 500 {
				t.Fatalf("field3 = %v %d", ft, id)
			}
			if v, _ := r.ReadI64(); v != 1 {
				t.Error("i64 field value")
			}
			ft, _, err = r.ReadFieldBegin()
			check(t, err)
			if ft != STOP {
				t.Fatal("missing stop")
			}
			r.ReadStructEnd()
		})
	}
}

func TestContainersRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			w.WriteListBegin(I32, 20) // >14 exercises compact long form
			for i := 0; i < 20; i++ {
				w.WriteI32(int32(i))
			}
			w.WriteListBegin(STRING, 0)

			r := mk(buf)
			et, n, err := r.ReadListBegin()
			check(t, err)
			if et != I32 || n != 20 {
				t.Fatalf("list = %v %d", et, n)
			}
			for i := 0; i < 20; i++ {
				if v, _ := r.ReadI32(); v != int32(i) {
					t.Fatalf("list[%d] = %d", i, v)
				}
			}
			et, n, err = r.ReadListBegin()
			check(t, err)
			if et != STRING || n != 0 {
				t.Fatalf("empty list = %v %d", et, n)
			}
		})
	}
}

func TestSkipComplexValue(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			// struct { 1: list<list<i32>>; 2: bool } followed by i32 sentinel
			w.WriteStructBegin()
			w.WriteFieldBegin(LIST, 1)
			w.WriteListBegin(LIST, 1)
			w.WriteListBegin(I32, 2)
			w.WriteI32(1)
			w.WriteI32(2)
			w.WriteFieldBegin(BOOL, 2)
			w.WriteBool(true)
			w.WriteFieldStop()
			w.WriteStructEnd()
			w.WriteI32(777)

			r := mk(buf)
			check(t, Skip(r, STRUCT))
			v, err := r.ReadI32()
			check(t, err)
			if v != 777 {
				t.Fatalf("sentinel after skip = %d", v)
			}
		})
	}
}

// TestSkipEveryWireType: the protocols write only the types generated
// code uses, but Skip must step over a value of any wire type a peer
// sends. Each row is one value spelled out in both protocols' bytes; Skip
// must consume exactly those bytes and leave the sentinel behind them.
func TestSkipEveryWireType(t *testing.T) {
	ff := bytes.Repeat([]byte{0xff}, 8)
	cases := []struct {
		name            string
		typ             TType
		binary, compact []byte
	}{
		{"bool", BOOL, []byte{1}, []byte{ctBoolTrue}},
		{"byte", BYTE, []byte{0x85}, []byte{0x85}},
		{"i16 -1000", I16, []byte{0xfc, 0x18}, []byte{0xcf, 0x0f}},
		{"i32 300", I32, []byte{0, 0, 0x01, 0x2c}, []byte{0xd8, 0x04}},
		{"i64 -1", I64, ff, []byte{0x01}},
		{"double 1.0", DOUBLE, []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{"string", STRING, []byte{0, 0, 0, 2, 'h', 'i'}, []byte{0x02, 'h', 'i'}},
		{"struct {1: i32 7}", STRUCT, []byte{byte(I32), 0, 1, 0, 0, 0, 7, 0}, []byte{0x10 | ctI32, 0x0e, ctStop}},
		{"map<string,i64> {k: -1}", MAP,
			append([]byte{byte(STRING), byte(I64), 0, 0, 0, 1, 0, 0, 0, 1, 'k'}, ff...),
			[]byte{0x01, ctBinary<<4 | ctI64, 0x01, 'k', 0x01}},
		{"empty map", MAP, []byte{byte(STRING), byte(I64), 0, 0, 0, 0}, []byte{0x00}},
		{"set<byte> {1, 2}", SET, []byte{byte(BYTE), 0, 0, 0, 2, 1, 2}, []byte{0x20 | ctByte, 1, 2}},
		{"list<string> [a]", LIST, []byte{byte(STRING), 0, 0, 0, 1, 0, 0, 0, 1, 'a'}, []byte{0x10 | ctBinary, 0x01, 'a'}},
	}
	const sentinel = 0x7e
	for _, c := range cases {
		for name, raw := range map[string][]byte{"binary": c.binary, "compact": c.compact} {
			mem := NewTMemoryBufferWith(append(bytes.Clone(raw), sentinel))
			if err := Skip(protoFactories[name](mem), c.typ); err != nil {
				t.Errorf("%s, %s: %v", c.name, name, err)
			} else if rest := mem.Bytes(); len(rest) != 1 || rest[0] != sentinel {
				t.Errorf("%s, %s: Skip left %x, want only the sentinel", c.name, name, rest)
			}
		}
	}
}

// TestSkipDepthLimit: Skip follows nesting to maxSkipDepth levels and
// refuses one more, in both protocols — a struct whose only field is a
// struct, d deep, closed by d+1 STOPs.
func TestSkipDepthLimit(t *testing.T) {
	field := map[string][]byte{"binary": {byte(STRUCT), 0, 1}, "compact": {0x10 | ctStruct}}
	for name, mk := range protoFactories {
		for _, d := range []int{maxSkipDepth, maxSkipDepth + 1} {
			raw := append(bytes.Repeat(field[name], d), make([]byte, d+1)...)
			mem := NewTMemoryBufferWith(raw)
			err := Skip(mk(mem), STRUCT)
			switch {
			case d <= maxSkipDepth && (err != nil || mem.Len() != 0):
				t.Errorf("%s: %d levels: %v, %d bytes left", name, d, err, mem.Len())
			case d > maxSkipDepth && (err == nil || !strings.Contains(err.Error(), "nesting")):
				t.Errorf("%s: %d levels: %v, want the nesting limit", name, d, err)
			}
		}
	}
}

func TestApplicationExceptionRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		t.Run(name, func(t *testing.T) {
			buf := NewTMemoryBuffer()
			w := mk(buf)
			exc := NewApplicationException(ExcUnknownMethod, "no such method")
			exc.Write(w)
			r := mk(buf)
			var got TApplicationException
			check(t, got.Read(r))
			if got.Message != "no such method" || got.Type != ExcUnknownMethod {
				t.Fatalf("round-trip = %+v", got)
			}
		})
	}
}

func TestCompactSmallerThanBinary(t *testing.T) {
	write := func(p TProtocol) {
		p.WriteStructBegin()
		for i := int16(1); i <= 10; i++ {
			p.WriteFieldBegin(I32, i)
			p.WriteI32(int32(i))
		}
		p.WriteFieldStop()
		p.WriteStructEnd()
	}
	bb := NewTMemoryBuffer()
	write(NewTBinaryProtocol(bb))
	cb := NewTMemoryBuffer()
	write(NewTCompactProtocol(cb))
	if cb.Len() >= bb.Len() {
		t.Fatalf("compact (%d) not smaller than binary (%d)", cb.Len(), bb.Len())
	}
}

func TestBinaryRejectsBadVersion(t *testing.T) {
	buf := NewTMemoryBufferWith([]byte{0x00, 0x01, 0x02, 0x03, 0, 0, 0, 0})
	r := NewTBinaryProtocol(buf)
	if _, _, _, err := r.ReadMessageBegin(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestCompactRejectsBadProtocolID(t *testing.T) {
	buf := NewTMemoryBufferWith([]byte{0x99, 0x21})
	r := NewTCompactProtocol(buf)
	if _, _, _, err := r.ReadMessageBegin(); err == nil {
		t.Fatal("bad protocol id accepted")
	}
}

// Property: every int64 round-trips through both protocols.
func TestPropertyI64RoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(v int64) bool {
				buf := NewTMemoryBuffer()
				mk(buf).WriteI64(v)
				got, err := mk(buf).ReadI64()
				return err == nil && got == v
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: arbitrary byte strings round-trip as binary.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	for name, mk := range protoFactories {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(v []byte) bool {
				buf := NewTMemoryBuffer()
				mk(buf).WriteBinary(v)
				got, err := mk(buf).ReadBinary()
				if err != nil || len(got) != len(v) {
					return false
				}
				for i := range v {
					if got[i] != v[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: a peer's doubles — big-endian in binary, little-endian in
// compact — read back bit-exactly (including NaN payloads).
func TestPropertyDoubleRoundTrip(t *testing.T) {
	for name, order := range map[string]binary.AppendByteOrder{"binary": binary.BigEndian, "compact": binary.LittleEndian} {
		mk := protoFactories[name]
		t.Run(name, func(t *testing.T) {
			f := func(bits uint64) bool {
				got, err := mk(NewTMemoryBufferWith(order.AppendUint64(nil, bits))).ReadDouble()
				return err == nil && math.Float64bits(got) == bits
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: field ids survive delta encoding for any positive id sequence.
func TestPropertyCompactFieldIDs(t *testing.T) {
	f := func(raw []uint16) bool {
		ids := make([]int16, 0, len(raw))
		seen := map[int16]bool{}
		for _, r := range raw {
			id := int16(r%4000) + 1
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		buf := NewTMemoryBuffer()
		w := NewTCompactProtocol(buf)
		w.WriteStructBegin()
		for _, id := range ids {
			w.WriteFieldBegin(I32, id)
			w.WriteI32(int32(id))
		}
		w.WriteFieldStop()
		w.WriteStructEnd()
		r := NewTCompactProtocol(buf)
		r.ReadStructBegin()
		for _, want := range ids {
			ft, id, err := r.ReadFieldBegin()
			if err != nil || ft != I32 || id != want {
				return false
			}
			if v, _ := r.ReadI32(); v != int32(want) {
				return false
			}
		}
		ft, _, err := r.ReadFieldBegin()
		return err == nil && ft == STOP
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemoryBufferOverCallerBuffer: a memory buffer handed an empty slice
// of a caller's buffer serializes into that buffer — Bytes aliases it —
// and quietly moves to its own storage when the message outgrows it.
func TestMemoryBufferOverCallerBuffer(t *testing.T) {
	backing := make([]byte, 256)
	mem := NewTMemoryBufferWith(backing[:0])
	w := NewTBinaryProtocol(mem)
	blob := bytes.Repeat([]byte{0xAB}, 100)
	w.WriteMessageBegin("f", CALL, 1)
	w.WriteBinary(blob)
	out := mem.Bytes()
	if &out[0] != &backing[0] {
		t.Fatal("message that fits was not serialized into the caller's buffer")
	}
	w.WriteBinary(bytes.Repeat([]byte{0xCD}, 400))
	if grown := mem.Bytes(); &grown[0] == &backing[0] || !bytes.Equal(grown[:len(out)], out) {
		t.Fatal("message that outgrew the caller's buffer was not moved intact")
	}
}

// TestViewReadsBinaryInPlace: decoded as a request a binary field is a
// window onto the message (no copy, capacity clipped to the field), a
// string is still an independent copy, and a length running past the
// message fails instead of reading beyond it.
func TestViewReadsBinaryInPlace(t *testing.T) {
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	w.WriteString("name")
	w.WriteBinary([]byte("payload"))
	w.WriteI32(1 << 20) // a binary length with nothing behind it
	msg := mem.Bytes()

	r := NewCodec().DecodeRequest(msg)
	if s, err := r.ReadString(); err != nil || s != "name" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	b, err := r.ReadBinary()
	if err != nil || string(b) != "payload" {
		t.Fatalf("ReadBinary = %q, %v", b, err)
	}
	if off := 4 + 4 + 4; &b[0] != &msg[off] || cap(b) != len(b) {
		t.Fatalf("binary field is not a clipped window onto the message (cap %d, len %d)", cap(b), len(b))
	}
	if _, err := r.ReadBinary(); err == nil {
		t.Fatal("binary length past the end of the message was accepted")
	}

	// The plain reader still hands out copies.
	r = NewTBinaryProtocol(NewTMemoryBufferWith(msg))
	r.ReadString()
	if b, _ := r.ReadBinary(); &b[0] == &msg[12] {
		t.Fatal("non-view transport returned a window")
	}
}

// TestWriteBinaryGrowsOnce: a large binary field and the few bytes behind
// it cost one buffer allocation, not a reallocation per append.
func TestWriteBinaryGrowsOnce(t *testing.T) {
	blob := make([]byte, 128<<10)
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	w.WriteMessageBegin("Echo", CALL, 1)
	w.WriteBinary(blob)
	before := &mem.Bytes()[0]
	w.WriteFieldStop()
	w.WriteI64(7)
	if &mem.Bytes()[0] != before {
		t.Fatal("the bytes behind a large binary field moved it again")
	}
	// Many small fields stay amortized: the buffer never grows by less
	// than doubling.
	mem = NewTMemoryBuffer()
	w = NewTBinaryProtocol(mem)
	grows, last := 0, 0
	for i := 0; i < 1000; i++ {
		w.WriteBinary(blob[:100])
		if c := cap(mem.Bytes()); c != last {
			grows, last = grows+1, c
		}
	}
	if grows > 16 {
		t.Fatalf("1000 small binary fields grew the buffer %d times", grows)
	}
}

// TestReplyFieldsShareOneAllocation: decoded as a reply, the binary fields
// of a message are copies cut from one allocation, each with its capacity
// capped at its length, and none a window onto the message.
func TestReplyFieldsShareOneAllocation(t *testing.T) {
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	fields := [][]byte{[]byte("first"), {}, []byte("third and last")}
	for _, f := range fields {
		w.WriteBinary(f)
	}
	msg := mem.Bytes()
	c := NewCodec()
	var got [3][]byte
	allocs := testing.AllocsPerRun(20, func() {
		r := c.DecodeReply(msg)
		for i := range got {
			got[i], _ = r.ReadBinary()
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations for a reply's three binary fields, want 1", allocs)
	}
	for i, f := range fields {
		if !bytes.Equal(got[i], f) || got[i] == nil || cap(got[i]) != len(f) {
			t.Errorf("field %d = %q (cap %d), want %q with capped capacity", i, got[i], cap(got[i]), f)
		}
	}
	clear(msg)
	if string(got[0]) != "first" || string(got[2]) != "third and last" {
		t.Error("a reply's binary field aliases the message it was decoded from")
	}
}

// TestReplyEmptyLastField: an empty binary field that is a reply's last
// bytes is a non-nil empty slice, as an empty field anywhere else is: the
// copy of nothing still yields a slice.
func TestReplyEmptyLastField(t *testing.T) {
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	w.WriteBinary([]byte("head"))
	w.WriteBinary(nil)
	for name, msg := range map[string][]byte{"alone": mem.Bytes()[8:], "after a field": mem.Bytes()} {
		r := NewCodec().DecodeReply(msg)
		var got []byte
		var err error
		for err == nil && r.m.Len() > 0 {
			got, err = r.ReadBinary()
		}
		if err != nil || got == nil || len(got) != 0 {
			t.Errorf("%s: last field = %#v, %v; want a non-nil empty slice", name, got, err)
		}
	}
}

// TestReplyLargeFieldsShareOneCopy: two large binary fields of one reply
// are windows into one allocation, each capacity capped, so appending to
// the first cannot reach the second, and both keep their bytes once the
// message is overwritten.
func TestReplyLargeFieldsShareOneCopy(t *testing.T) {
	a, b := bytes.Repeat([]byte{0xA1}, 64<<10), bytes.Repeat([]byte{0xB2}, 64<<10)
	mem := NewTMemoryBuffer()
	w := NewTBinaryProtocol(mem)
	w.WriteBinary(a)
	w.WriteBinary(b)
	msg := mem.Bytes()
	c := NewCodec()
	var got [2][]byte
	allocs := testing.AllocsPerRun(10, func() {
		r := c.DecodeReply(msg)
		got[0], _ = r.ReadBinary()
		got[1], _ = r.ReadBinary()
	})
	if allocs != 1 {
		t.Errorf("%v allocations for a reply's two large fields, want 1", allocs)
	}
	if cap(got[0]) != len(a) || cap(got[1]) != len(b) {
		t.Errorf("capacities %d and %d, want each capped at %d", cap(got[0]), cap(got[1]), len(a))
	}
	_ = append(got[0], 0xFF)
	clear(msg)
	if !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Error("a large reply field lost its bytes to an append on its neighbour or to the message being overwritten")
	}
}

// TestReplyCopyFollowsTheBuffer: an owned buffer that grows or is reset
// between reads decodes what it holds at each read: a field behind the
// bytes copied so far takes a fresh copy, and Reset drops the old one.
func TestReplyCopyFollowsTheBuffer(t *testing.T) {
	mem := NewTMemoryBuffer()
	p := NewTBinaryProtocol(mem)
	for i, want := range []string{"first", "reset", "grown behind it"} {
		if i == 1 { // the same offsets as the copy taken at "first"
			mem.Reset()
		}
		p.WriteBinary([]byte(want))
		if got, err := p.ReadBinary(); err != nil || string(got) != want {
			t.Errorf("read %d = %q, %v; want %q", i, got, err, want)
		}
	}
}

// stringList serializes a list<string> header that claims count elements,
// then elems.
func stringList(mk func(TTransport) TProtocol, count int, elems ...string) []byte {
	mem := NewTMemoryBuffer()
	w := mk(mem)
	w.WriteListBegin(STRING, count)
	for _, s := range elems {
		w.WriteString(s)
	}
	return mem.Bytes()
}

// readList decodes a list<string> from msg with ReadStrings (whole) or
// with the element-by-element loop ReadStrings replaces.
func readList(mk func(TTransport) TProtocol, msg []byte, whole bool) ([]string, error) {
	r := mk(NewTMemoryBufferWith(msg))
	_, n, err := r.ReadListBegin()
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	if whole {
		return out, r.ReadStrings(out)
	}
	for i := range out {
		if out[i], err = r.ReadString(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// manyStrings is a list long enough for compact's long-form header, with
// an empty, a multi-byte and a 300-byte element among its keys.
func manyStrings() []string {
	elems := []string{"", "héllo wörld", strings.Repeat("k", 300)}
	for i := 0; i < 20; i++ {
		elems = append(elems, fmt.Sprintf("user%04d", i))
	}
	return elems
}

func TestReadStringsRoundTrip(t *testing.T) {
	elems := manyStrings()
	for name, mk := range protoFactories {
		got, err := readList(mk, stringList(mk, len(elems), elems...), true)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(elems) {
			t.Errorf("%s: ReadStrings = %q, %v; want %q", name, got, err, elems)
		}
	}
}

// TestReadStringsAllocateOncePerList: the strings of a list cost one
// allocation between them, however many there are.
func TestReadStringsAllocateOncePerList(t *testing.T) {
	elems := manyStrings()
	for name, mk := range protoFactories {
		mem := NewTMemoryBufferWith(stringList(mk, len(elems), elems...))
		r, dst := mk(mem), make([]string, len(elems))
		allocs := testing.AllocsPerRun(20, func() {
			mem.rpos = 0
			if _, _, err := r.ReadListBegin(); err != nil {
				t.Fatal(err)
			}
			if err := r.ReadStrings(dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations for a list of %d strings, want 1", name, allocs, len(elems))
		}
	}
}

// TestReadStringsOutliveTheMessage: strings read from a request, where
// binary fields are lent windows, are copies: a later message decoded by
// the same reader, and the bytes of both messages being overwritten, leave
// them as they were.
func TestReadStringsOutliveTheMessage(t *testing.T) {
	c := NewCodec()
	compact := NewTCompactProtocol(&c.rbuf)
	for name, decode := range map[string]func([]byte) TProtocol{
		"binary": func(msg []byte) TProtocol { return c.DecodeRequest(msg) },
		"compact": func(msg []byte) TProtocol {
			c.rbuf = TMemoryBuffer{buf: msg, own: ownLent}
			return compact
		},
	} {
		mk := protoFactories[name]
		first, second := stringList(mk, 3, "a1", "b22", "c333"), stringList(mk, 3, "x9", "y88", "z777")
		kept, later := make([]string, 3), make([]string, 3)
		for _, m := range []struct {
			msg []byte
			dst []string
		}{{first, kept}, {second, later}} {
			r := decode(m.msg)
			if _, _, err := r.ReadListBegin(); err != nil {
				t.Fatal(err)
			}
			if err := r.ReadStrings(m.dst); err != nil {
				t.Fatal(err)
			}
		}
		clear(first)
		clear(second)
		if fmt.Sprint(kept) != "[a1 b22 c333]" || fmt.Sprint(later) != "[x9 y88 z777]" {
			t.Errorf("%s: strings read %q and %q once their messages were overwritten", name, kept, later)
		}
	}
}

// TestReadStringsFailAsTheLoopDoes: a list ReadStrings refuses fails with
// the error the element-by-element loop it replaces fails with — for a
// truncated middle element, a length no message can back and a count the
// elements do not fill, and for arbitrary bytes behind a list header —
// and a list both accept reads the same.
func TestReadStringsFailAsTheLoopDoes(t *testing.T) {
	for name, mk := range protoFactories {
		unbacked := NewTMemoryBuffer() // "alpha", then a negative (binary) or ≥ 2⁶³ (compact) length
		w := mk(unbacked)
		w.WriteListBegin(STRING, 3)
		w.WriteString("alpha")
		if b, ok := w.(*TBinaryProtocol); ok {
			b.WriteI32(-1)
		} else {
			w.(*TCompactProtocol).writeVarint(1 << 63)
		}
		w.WriteString("charlie")
		two := stringList(mk, 3, "alpha", "bravo")
		for what, msg := range map[string][]byte{
			"a truncated middle element": two[:len(two)-3],
			"a length no message backs":  unbacked.Bytes(),
			"a count that lies":          stringList(mk, 4, "alpha", "bravo", "charlie"),
		} {
			_, err := readList(mk, msg, true)
			_, want := readList(mk, msg, false)
			if err == nil || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("%s, %s: ReadStrings fails with %v, the loop with %v", name, what, err, want)
			}
		}
		same := func(count uint8, data []byte) bool {
			msg := append(stringList(mk, int(count)%(len(data)+1)), data...)
			got, err := readList(mk, msg, true)
			want, wantErr := readList(mk, msg, false)
			return fmt.Sprint(err) == fmt.Sprint(wantErr) && (err != nil || fmt.Sprint(got) == fmt.Sprint(want))
		}
		if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
