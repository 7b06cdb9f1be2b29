package thrift

import (
	"encoding/binary"
	"fmt"
	"math"
)

// binaryVersionMask and binaryVersion1 implement the "strict" binary
// protocol header.
const (
	binaryVersionMask uint32 = 0xffff0000
	binaryVersion1    uint32 = 0x80010000
)

// TBinaryProtocol is the default Thrift wire protocol: fixed-width
// big-endian integers, length-prefixed strings. It reads and writes the
// memory buffer it is built over in place, so it carries no state of its
// own and a message costs no allocation beyond the buffer's growth.
// Protocols are per-connection and not goroutine-safe, as in upstream
// Thrift.
type TBinaryProtocol struct {
	m *TMemoryBuffer
}

var _ TProtocol = (*TBinaryProtocol)(nil)

// NewTBinaryProtocol returns a strict binary protocol over trans.
func NewTBinaryProtocol(trans TTransport) *TBinaryProtocol {
	return &TBinaryProtocol{m: trans}
}

// WriteMessageBegin emits the strict-mode message header.
func (p *TBinaryProtocol) WriteMessageBegin(name string, typeID TMessageType, seqid int32) {
	p.WriteI32(int32(binaryVersion1 | uint32(typeID)))
	p.WriteString(name)
	p.WriteI32(seqid)
}

// WriteStructBegin is a no-op in the binary protocol.
func (p *TBinaryProtocol) WriteStructBegin() {}

// WriteStructEnd is a no-op.
func (p *TBinaryProtocol) WriteStructEnd() {}

// WriteFieldBegin emits the field type and id.
func (p *TBinaryProtocol) WriteFieldBegin(typeID TType, id int16) {
	b := p.m.extend(3)
	b[0] = byte(typeID)
	binary.BigEndian.PutUint16(b[1:], uint16(id))
}

// WriteFieldStop emits the STOP sentinel.
func (p *TBinaryProtocol) WriteFieldStop() { p.WriteI8(int8(STOP)) }

// WriteListBegin emits element type and size.
func (p *TBinaryProtocol) WriteListBegin(et TType, size int) {
	b := p.m.extend(5)
	b[0] = byte(et)
	binary.BigEndian.PutUint32(b[1:], uint32(size))
}

// WriteBool emits one byte.
func (p *TBinaryProtocol) WriteBool(v bool) {
	if v {
		p.WriteI8(1)
	} else {
		p.WriteI8(0)
	}
}

// WriteI8 emits one byte.
func (p *TBinaryProtocol) WriteI8(v int8) { p.m.extend(1)[0] = byte(v) }

// WriteI32 emits a big-endian int32.
func (p *TBinaryProtocol) WriteI32(v int32) { binary.BigEndian.PutUint32(p.m.extend(4), uint32(v)) }

// WriteI64 emits a big-endian int64.
func (p *TBinaryProtocol) WriteI64(v int64) { binary.BigEndian.PutUint64(p.m.extend(8), uint64(v)) }

// WriteString emits a length-prefixed string.
func (p *TBinaryProtocol) WriteString(v string) {
	b := p.m.extend(4 + len(v))
	binary.BigEndian.PutUint32(b, uint32(len(v)))
	copy(b[4:], v)
}

// WriteBinary emits a length-prefixed byte slice.
func (p *TBinaryProtocol) WriteBinary(v []byte) {
	b := p.m.extend(4 + len(v))
	binary.BigEndian.PutUint32(b, uint32(len(v)))
	copy(b[4:], v)
}

// ReadMessageBegin parses the strict-mode header.
func (p *TBinaryProtocol) ReadMessageBegin() (string, TMessageType, int32, error) {
	name, typeID, seqid, err := p.ReadMessageHeader()
	return string(name), typeID, seqid, err
}

// ReadMessageHeader is ReadMessageBegin with the name left as a window
// onto the buffer, for a reader that dispatches on something else or
// compares the name where it lies.
func (p *TBinaryProtocol) ReadMessageHeader() (name []byte, typeID TMessageType, seqid int32, err error) {
	first, err := p.ReadI32()
	if err != nil {
		return nil, 0, 0, err
	}
	if uint32(first)&binaryVersionMask != binaryVersion1 {
		return nil, 0, 0, fmt.Errorf("thrift: bad binary protocol version 0x%08x", uint32(first))
	}
	typeID = TMessageType(uint32(first) & 0xff)
	if name, err = p.readLenPrefixed(); err != nil {
		return nil, 0, 0, err
	}
	seqid, err = p.ReadI32()
	return name, typeID, seqid, err
}

// ReadStructBegin is a no-op.
func (p *TBinaryProtocol) ReadStructBegin() {}

// ReadStructEnd is a no-op.
func (p *TBinaryProtocol) ReadStructEnd() {}

// ReadFieldBegin parses field type and id (id omitted for STOP).
func (p *TBinaryProtocol) ReadFieldBegin() (TType, int16, error) {
	t, err := p.ReadI8()
	if err != nil {
		return 0, 0, err
	}
	if TType(t) == STOP {
		return STOP, 0, nil
	}
	id, err := p.ReadI16()
	return TType(t), id, err
}

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
	size, err := p.readCount()
	return TType(kt), TType(vt), size, err
}

// ReadListBegin parses element type and size.
func (p *TBinaryProtocol) ReadListBegin() (TType, int, error) {
	et, err := p.ReadI8()
	if err != nil {
		return 0, 0, err
	}
	size, err := p.readCount()
	return TType(et), size, err
}

// readCount parses a container's element count.
func (p *TBinaryProtocol) readCount() (int, error) {
	n, err := p.ReadI32()
	if err != nil {
		return 0, err
	}
	return p.m.count(uint64(uint32(n))) // a negative count is a huge one
}

// ReadSetBegin parses element type and size.
func (p *TBinaryProtocol) ReadSetBegin() (TType, int, error) { return p.ReadListBegin() }

// ReadBool parses one byte as bool.
func (p *TBinaryProtocol) ReadBool() (bool, error) {
	b, err := p.ReadI8()
	return b != 0, err
}

// ReadI8 parses one byte.
func (p *TBinaryProtocol) ReadI8() (int8, error) {
	b, err := p.m.next(1)
	if err != nil {
		return 0, err
	}
	return int8(b[0]), nil
}

// ReadI16 parses a big-endian int16.
func (p *TBinaryProtocol) ReadI16() (int16, error) {
	b, err := p.m.next(2)
	if err != nil {
		return 0, err
	}
	return int16(binary.BigEndian.Uint16(b)), nil
}

// ReadI32 parses a big-endian int32.
func (p *TBinaryProtocol) ReadI32() (int32, error) {
	b, err := p.m.next(4)
	if err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(b)), nil
}

// ReadI64 parses a big-endian int64.
func (p *TBinaryProtocol) ReadI64() (int64, error) {
	b, err := p.m.next(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// ReadDouble parses an IEEE-754 double.
func (p *TBinaryProtocol) ReadDouble() (float64, error) {
	v, err := p.ReadI64()
	return math.Float64frombits(uint64(v)), err
}

// ReadString parses a length-prefixed string.
func (p *TBinaryProtocol) ReadString() (string, error) {
	b, err := p.readLenPrefixed()
	return string(b), err
}

// ReadStrings parses len(dst) length-prefixed strings into dst, all cut
// from one allocation.
func (p *TBinaryProtocol) ReadStrings(dst []string) error {
	return p.m.readStrings(dst, p.readLenPrefixed)
}

// ReadBinary parses a length-prefixed byte slice, owned as the buffer
// says: a window onto the buffer (Codec.DecodeRequest), or else a copy
// cut from the one allocation the message's fields share
// (Codec.DecodeReply, NewTMemoryBuffer[With]).
func (p *TBinaryProtocol) ReadBinary() ([]byte, error) {
	n, err := p.ReadI32()
	if err != nil {
		return nil, err
	}
	return p.m.binaryField(int(n))
}

// readLenPrefixed returns the bytes behind a length prefix as a window
// onto the buffer.
func (p *TBinaryProtocol) readLenPrefixed() ([]byte, error) {
	n, err := p.ReadI32()
	if err != nil {
		return nil, err
	}
	return p.m.next(int(n))
}
