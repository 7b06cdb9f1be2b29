package thrift

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// binaryVersionMask and binaryVersion1 implement the "strict" binary
// protocol header.
const (
	binaryVersionMask uint32 = 0xffff0000
	binaryVersion1    uint32 = 0x80010000
)

// TBinaryProtocol is the default Thrift wire protocol: fixed-width
// big-endian integers, length-prefixed strings.
//
// The scratch fields make the fixed-width codec allocation-free: a
// stack array passed through the TTransport interface escapes to the
// heap on every call, so the per-protocol fields absorb that cost once
// at protocol construction. Protocols are per-connection and not
// goroutine-safe, as in upstream Thrift.
type TBinaryProtocol struct {
	trans   TTransport
	scratch [8]byte // fixed-width integer staging
	sbuf    []byte  // grow-once string-write staging
}

var _ TProtocol = (*TBinaryProtocol)(nil)

// NewTBinaryProtocol returns a strict binary protocol over trans.
func NewTBinaryProtocol(trans TTransport) *TBinaryProtocol {
	return &TBinaryProtocol{trans: trans}
}

// Transport returns the underlying transport.
func (p *TBinaryProtocol) Transport() TTransport { return p.trans }

// Flush flushes the underlying transport.
func (p *TBinaryProtocol) Flush() error { return p.trans.Flush() }

func (p *TBinaryProtocol) writeAll(b []byte) error {
	_, err := p.trans.Write(b)
	return err
}

func (p *TBinaryProtocol) readFull(b []byte) error {
	_, err := io.ReadFull(p.trans, b)
	return err
}

// WriteMessageBegin emits the strict-mode message header.
func (p *TBinaryProtocol) WriteMessageBegin(name string, typeID TMessageType, seqid int32) error {
	if err := p.WriteI32(int32(binaryVersion1 | uint32(typeID))); err != nil {
		return err
	}
	if err := p.WriteString(name); err != nil {
		return err
	}
	return p.WriteI32(seqid)
}

// WriteMessageEnd is a no-op.
func (p *TBinaryProtocol) WriteMessageEnd() error { return nil }

// WriteStructBegin is a no-op in the binary protocol.
func (p *TBinaryProtocol) WriteStructBegin(string) error { return nil }

// WriteStructEnd is a no-op.
func (p *TBinaryProtocol) WriteStructEnd() error { return nil }

// WriteFieldBegin emits the field type and id.
func (p *TBinaryProtocol) WriteFieldBegin(_ string, typeID TType, id int16) error {
	if err := p.WriteI8(int8(typeID)); err != nil {
		return err
	}
	return p.WriteI16(id)
}

// WriteFieldEnd is a no-op.
func (p *TBinaryProtocol) WriteFieldEnd() error { return nil }

// WriteFieldStop emits the STOP sentinel.
func (p *TBinaryProtocol) WriteFieldStop() error { return p.WriteI8(int8(STOP)) }

// WriteMapBegin emits key type, value type and size.
func (p *TBinaryProtocol) WriteMapBegin(kt, vt TType, size int) error {
	if err := p.WriteI8(int8(kt)); err != nil {
		return err
	}
	if err := p.WriteI8(int8(vt)); err != nil {
		return err
	}
	return p.WriteI32(int32(size))
}

// WriteMapEnd is a no-op.
func (p *TBinaryProtocol) WriteMapEnd() error { return nil }

// WriteListBegin emits element type and size.
func (p *TBinaryProtocol) WriteListBegin(et TType, size int) error {
	if err := p.WriteI8(int8(et)); err != nil {
		return err
	}
	return p.WriteI32(int32(size))
}

// WriteListEnd is a no-op.
func (p *TBinaryProtocol) WriteListEnd() error { return nil }

// WriteSetBegin emits element type and size.
func (p *TBinaryProtocol) WriteSetBegin(et TType, size int) error {
	return p.WriteListBegin(et, size)
}

// WriteSetEnd is a no-op.
func (p *TBinaryProtocol) WriteSetEnd() error { return nil }

// WriteBool emits one byte.
func (p *TBinaryProtocol) WriteBool(v bool) error {
	if v {
		return p.WriteI8(1)
	}
	return p.WriteI8(0)
}

// WriteI8 emits one byte.
func (p *TBinaryProtocol) WriteI8(v int8) error {
	p.scratch[0] = byte(v)
	return p.writeAll(p.scratch[:1])
}

// WriteI16 emits a big-endian int16.
func (p *TBinaryProtocol) WriteI16(v int16) error {
	binary.BigEndian.PutUint16(p.scratch[:2], uint16(v))
	return p.writeAll(p.scratch[:2])
}

// WriteI32 emits a big-endian int32.
func (p *TBinaryProtocol) WriteI32(v int32) error {
	binary.BigEndian.PutUint32(p.scratch[:4], uint32(v))
	return p.writeAll(p.scratch[:4])
}

// WriteI64 emits a big-endian int64.
func (p *TBinaryProtocol) WriteI64(v int64) error {
	binary.BigEndian.PutUint64(p.scratch[:8], uint64(v))
	return p.writeAll(p.scratch[:8])
}

// WriteDouble emits an IEEE-754 double, big-endian.
func (p *TBinaryProtocol) WriteDouble(v float64) error {
	return p.WriteI64(int64(math.Float64bits(v)))
}

// WriteString emits a length-prefixed string. The string bytes are
// staged in the protocol's grow-once buffer instead of a per-call
// []byte(v) conversion.
func (p *TBinaryProtocol) WriteString(v string) error {
	if err := p.WriteI32(int32(len(v))); err != nil {
		return err
	}
	p.sbuf = append(p.sbuf[:0], v...)
	return p.writeAll(p.sbuf)
}

// binaryTail is the room WriteBinary asks a memory buffer for beyond the
// field itself: the bytes that typically follow a message's last binary
// field (field stops, a few scalar fields). Without it a buffer sized by
// the field's own append to exactly fit would be reallocated, and the
// whole field moved again, by the one-byte write behind it.
const binaryTail = 64

// WriteBinary emits a length-prefixed byte slice. A memory buffer is
// grown once, from the length known here, instead of by appending.
func (p *TBinaryProtocol) WriteBinary(v []byte) error {
	if m, ok := p.trans.(*TMemoryBuffer); ok {
		m.Grow(4 + len(v) + binaryTail)
	}
	if err := p.WriteI32(int32(len(v))); err != nil {
		return err
	}
	return p.writeAll(v)
}

// ReadMessageBegin parses the strict-mode header.
func (p *TBinaryProtocol) ReadMessageBegin() (string, TMessageType, int32, error) {
	first, err := p.ReadI32()
	if err != nil {
		return "", 0, 0, err
	}
	if uint32(first)&binaryVersionMask != binaryVersion1 {
		return "", 0, 0, fmt.Errorf("thrift: bad binary protocol version 0x%08x", uint32(first))
	}
	typeID := TMessageType(uint32(first) & 0xff)
	name, err := p.ReadString()
	if err != nil {
		return "", 0, 0, err
	}
	seqid, err := p.ReadI32()
	return name, typeID, seqid, err
}

// ReadMessageEnd is a no-op.
func (p *TBinaryProtocol) ReadMessageEnd() error { return nil }

// ReadStructBegin is a no-op.
func (p *TBinaryProtocol) ReadStructBegin() (string, error) { return "", nil }

// ReadStructEnd is a no-op.
func (p *TBinaryProtocol) ReadStructEnd() error { return nil }

// ReadFieldBegin parses field type and id (id omitted for STOP).
func (p *TBinaryProtocol) ReadFieldBegin() (string, TType, int16, error) {
	t, err := p.ReadI8()
	if err != nil {
		return "", 0, 0, err
	}
	if TType(t) == STOP {
		return "", STOP, 0, nil
	}
	id, err := p.ReadI16()
	return "", TType(t), id, err
}

// ReadFieldEnd is a no-op.
func (p *TBinaryProtocol) ReadFieldEnd() error { return nil }

// ReadMapBegin parses key/value types and size.
func (p *TBinaryProtocol) ReadMapBegin() (TType, TType, int, error) {
	kt, err := p.ReadI8()
	if err != nil {
		return 0, 0, 0, err
	}
	vt, err := p.ReadI8()
	if err != nil {
		return 0, 0, 0, err
	}
	size, err := p.ReadI32()
	if size < 0 {
		return 0, 0, 0, fmt.Errorf("thrift: negative map size %d", size)
	}
	return TType(kt), TType(vt), int(size), err
}

// ReadMapEnd is a no-op.
func (p *TBinaryProtocol) ReadMapEnd() error { return nil }

// ReadListBegin parses element type and size.
func (p *TBinaryProtocol) ReadListBegin() (TType, int, error) {
	et, err := p.ReadI8()
	if err != nil {
		return 0, 0, err
	}
	size, err := p.ReadI32()
	if size < 0 {
		return 0, 0, fmt.Errorf("thrift: negative list size %d", size)
	}
	return TType(et), int(size), err
}

// ReadListEnd is a no-op.
func (p *TBinaryProtocol) ReadListEnd() error { return nil }

// ReadSetBegin parses element type and size.
func (p *TBinaryProtocol) ReadSetBegin() (TType, int, error) { return p.ReadListBegin() }

// ReadSetEnd is a no-op.
func (p *TBinaryProtocol) ReadSetEnd() error { return nil }

// ReadBool parses one byte as bool.
func (p *TBinaryProtocol) ReadBool() (bool, error) {
	b, err := p.ReadI8()
	return b != 0, err
}

// ReadI8 parses one byte.
func (p *TBinaryProtocol) ReadI8() (int8, error) {
	if err := p.readFull(p.scratch[:1]); err != nil {
		return 0, err
	}
	return int8(p.scratch[0]), nil
}

// ReadI16 parses a big-endian int16.
func (p *TBinaryProtocol) ReadI16() (int16, error) {
	if err := p.readFull(p.scratch[:2]); err != nil {
		return 0, err
	}
	return int16(binary.BigEndian.Uint16(p.scratch[:2])), nil
}

// ReadI32 parses a big-endian int32.
func (p *TBinaryProtocol) ReadI32() (int32, error) {
	if err := p.readFull(p.scratch[:4]); err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(p.scratch[:4])), nil
}

// ReadI64 parses a big-endian int64.
func (p *TBinaryProtocol) ReadI64() (int64, error) {
	if err := p.readFull(p.scratch[:8]); err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(p.scratch[:8])), nil
}

// ReadDouble parses an IEEE-754 double.
func (p *TBinaryProtocol) ReadDouble() (float64, error) {
	v, err := p.ReadI64()
	return math.Float64frombits(uint64(v)), err
}

// ReadString parses a length-prefixed string. The intermediate byte
// buffer goes back to the arena — the string conversion copies.
func (p *TBinaryProtocol) ReadString() (string, error) {
	n, err := p.readLen()
	if err != nil {
		return "", err
	}
	b, err := readLenPrefixed(p.trans, n)
	s := string(b)
	PutBuffer(b)
	return s, err
}

// ReadBinary parses a length-prefixed byte slice: a copy the caller owns,
// or — over a NewTMemoryBufferView transport — a window onto the buffer.
func (p *TBinaryProtocol) ReadBinary() ([]byte, error) {
	n, err := p.readLen()
	if err != nil {
		return nil, err
	}
	if m, ok := p.trans.(*TMemoryBuffer); ok && m.lend {
		return m.next(n)
	}
	return readLenPrefixed(p.trans, n)
}

func (p *TBinaryProtocol) readLen() (int, error) {
	n, err := p.ReadI32()
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("thrift: negative binary length %d", n)
	}
	return int(n), nil
}
