package thrift

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Compact protocol constants.
const (
	compactProtocolID  byte = 0x82
	compactVersion     byte = 1
	compactVersionMask byte = 0x1f
	compactTypeShift        = 5
)

// compact wire type codes (distinct from TType).
const (
	ctStop      byte = 0x00
	ctBoolTrue  byte = 0x01
	ctBoolFalse byte = 0x02
	ctByte      byte = 0x03
	ctI16       byte = 0x04
	ctI32       byte = 0x05
	ctI64       byte = 0x06
	ctDouble    byte = 0x07
	ctBinary    byte = 0x08
	ctList      byte = 0x09
	ctSet       byte = 0x0A
	ctMap       byte = 0x0B
	ctStruct    byte = 0x0C
)

// compactTypes maps a TType to its compact wire code, typesOfCompact a
// compact code back; STOP and ctStop are both zero, which the gaps in
// either table also read as.
var (
	compactTypes = [16]byte{
		BOOL: ctBoolTrue, BYTE: ctByte, I16: ctI16, I32: ctI32, I64: ctI64, DOUBLE: ctDouble,
		STRING: ctBinary, LIST: ctList, SET: ctSet, MAP: ctMap, STRUCT: ctStruct,
	}
	typesOfCompact = [16]TType{
		ctBoolTrue: BOOL, ctBoolFalse: BOOL, ctByte: BYTE, ctI16: I16, ctI32: I32, ctI64: I64, ctDouble: DOUBLE,
		ctBinary: STRING, ctList: LIST, ctSet: SET, ctMap: MAP, ctStruct: STRUCT,
	}
)

func toCompactType(t TType) byte {
	if t != STOP && (int(t) >= len(compactTypes) || compactTypes[t] == ctStop) {
		panic(fmt.Sprintf("thrift: no compact encoding for %v", t))
	}
	return compactTypes[t]
}

func fromCompactType(c byte) (TType, error) {
	if c != ctStop && (int(c) >= len(typesOfCompact) || typesOfCompact[c] == STOP) {
		return 0, fmt.Errorf("thrift: unknown compact type 0x%02x", c)
	}
	return typesOfCompact[c], nil
}

// TCompactProtocol is the Thrift compact protocol: varint/zigzag integers
// and delta-encoded field ids. It produces substantially smaller payloads
// than the binary protocol for structured data. Like the binary protocol
// it reads and writes its memory buffer in place.
type TCompactProtocol struct {
	m *TMemoryBuffer

	lastFieldID int16
	fieldStack  []int16

	pendingBoolField bool
	pendingBoolID    int16

	pendingBoolValue bool // read side: bool value decoded from field header
	havePendingBool  bool
}

var _ TProtocol = (*TCompactProtocol)(nil)

// NewTCompactProtocol returns a compact protocol over trans.
func NewTCompactProtocol(trans TTransport) *TCompactProtocol {
	return &TCompactProtocol{m: trans}
}

func (p *TCompactProtocol) writeByteRaw(b byte) { p.m.extend(1)[0] = b }

func (p *TCompactProtocol) writeVarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	copy(p.m.extend(n), tmp[:n])
}

func (p *TCompactProtocol) readVarint() (uint64, error) {
	v, n := binary.Uvarint(p.m.Bytes())
	switch {
	case n < 0:
		return 0, errors.New("thrift: varint overflows a 64-bit integer")
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	}
	_, err := p.m.next(n)
	return v, err
}

func zigzag32(v int32) uint64 { return uint64(uint32((v << 1) ^ (v >> 31))) }
func zigzag64(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig32(v uint64) int32  { u := uint32(v); return int32(u>>1) ^ -int32(u&1) }
func unzig64(v uint64) int64  { return int64(v>>1) ^ -int64(v&1) }

// WriteMessageBegin emits the compact message header.
func (p *TCompactProtocol) WriteMessageBegin(name string, typeID TMessageType, seqid int32) {
	p.writeByteRaw(compactProtocolID)
	p.writeByteRaw((compactVersion & compactVersionMask) | byte(typeID)<<compactTypeShift)
	p.writeVarint(uint64(uint32(seqid)))
	p.WriteString(name)
}

// pushStruct opens a struct's field-id delta context.
func (p *TCompactProtocol) pushStruct() {
	p.fieldStack = append(p.fieldStack, p.lastFieldID)
	p.lastFieldID = 0
}

// popStruct closes the innermost struct's context. Generated code and
// Skip pair every end with a begin, so an unbalanced end is a programming
// error, and it panics on the empty stack.
func (p *TCompactProtocol) popStruct() {
	n := len(p.fieldStack) - 1
	p.lastFieldID, p.fieldStack = p.fieldStack[n], p.fieldStack[:n]
}

// WriteStructBegin pushes the field-id delta context.
func (p *TCompactProtocol) WriteStructBegin() { p.pushStruct() }

// WriteStructEnd pops the field-id delta context.
func (p *TCompactProtocol) WriteStructEnd() { p.popStruct() }

func (p *TCompactProtocol) writeFieldHeader(ctype byte, id int16) {
	if delta := id - p.lastFieldID; delta > 0 && delta <= 15 {
		p.writeByteRaw(byte(delta)<<4 | ctype)
	} else {
		p.writeByteRaw(ctype)
		p.writeVarint(zigzag32(int32(id)))
	}
	p.lastFieldID = id
}

// WriteFieldBegin emits the delta-encoded field header. Bool fields defer
// emission to WriteBool, which folds the value into the type nibble.
func (p *TCompactProtocol) WriteFieldBegin(typeID TType, id int16) {
	if typeID == BOOL {
		p.pendingBoolField = true
		p.pendingBoolID = id
		return
	}
	p.writeFieldHeader(toCompactType(typeID), id)
}

// WriteFieldStop emits the stop byte.
func (p *TCompactProtocol) WriteFieldStop() { p.writeByteRaw(ctStop) }

// WriteListBegin emits the compact list header.
func (p *TCompactProtocol) WriteListBegin(et TType, size int) {
	if size < 15 {
		p.writeByteRaw(byte(size)<<4 | toCompactType(et))
		return
	}
	p.writeByteRaw(0xf0 | toCompactType(et))
	p.writeVarint(uint64(size))
}

// WriteBool emits a bool, folding it into a pending field header when one
// is deferred.
func (p *TCompactProtocol) WriteBool(v bool) {
	ct := ctBoolFalse
	if v {
		ct = ctBoolTrue
	}
	if p.pendingBoolField {
		p.pendingBoolField = false
		p.writeFieldHeader(ct, p.pendingBoolID)
		return
	}
	p.writeByteRaw(ct)
}

// WriteI8 emits one byte.
func (p *TCompactProtocol) WriteI8(v int8) { p.writeByteRaw(byte(v)) }

// WriteI32 emits a zigzag varint.
func (p *TCompactProtocol) WriteI32(v int32) { p.writeVarint(zigzag32(v)) }

// WriteI64 emits a zigzag varint.
func (p *TCompactProtocol) WriteI64(v int64) { p.writeVarint(zigzag64(v)) }

// WriteString emits a varint-length-prefixed string.
func (p *TCompactProtocol) WriteString(v string) {
	p.writeVarint(uint64(len(v)))
	copy(p.m.extend(len(v)), v)
}

// WriteBinary emits a varint-length-prefixed byte slice.
func (p *TCompactProtocol) WriteBinary(v []byte) {
	p.writeVarint(uint64(len(v)))
	copy(p.m.extend(len(v)), v)
}

// ReadMessageBegin parses the compact message header.
func (p *TCompactProtocol) ReadMessageBegin() (string, TMessageType, int32, error) {
	pid, err := p.readByteRaw()
	if err != nil {
		return "", 0, 0, err
	}
	if pid != compactProtocolID {
		return "", 0, 0, fmt.Errorf("thrift: bad compact protocol id 0x%02x", pid)
	}
	vt, err := p.readByteRaw()
	if err != nil {
		return "", 0, 0, err
	}
	if vt&compactVersionMask != compactVersion {
		return "", 0, 0, fmt.Errorf("thrift: bad compact version %d", vt&compactVersionMask)
	}
	typeID := TMessageType(vt >> compactTypeShift & 0x07)
	seq, err := p.readVarint()
	if err != nil {
		return "", 0, 0, err
	}
	name, err := p.ReadString()
	return name, typeID, int32(uint32(seq)), err
}

func (p *TCompactProtocol) readByteRaw() (byte, error) {
	b, err := p.m.next(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadStructBegin pushes the field-id delta context.
func (p *TCompactProtocol) ReadStructBegin() { p.pushStruct() }

// ReadStructEnd pops the field-id delta context.
func (p *TCompactProtocol) ReadStructEnd() { p.popStruct() }

// ReadFieldBegin parses the delta-encoded field header; bool values are
// captured for the following ReadBool.
func (p *TCompactProtocol) ReadFieldBegin() (TType, int16, error) {
	b, err := p.readByteRaw()
	if err != nil {
		return 0, 0, err
	}
	if b == ctStop {
		return STOP, 0, nil
	}
	ctype := b & 0x0f
	delta := int16(b >> 4)
	var id int16
	if delta == 0 {
		v, err := p.readVarint()
		if err != nil {
			return 0, 0, err
		}
		id = int16(unzig32(v))
	} else {
		id = p.lastFieldID + delta
	}
	p.lastFieldID = id
	tt, err := fromCompactType(ctype)
	if err != nil {
		return 0, 0, err
	}
	if tt == BOOL {
		p.havePendingBool = true
		p.pendingBoolValue = ctype == ctBoolTrue
	}
	return tt, id, nil
}

// ReadMapBegin parses the compact map header.
func (p *TCompactProtocol) ReadMapBegin() (TType, TType, int, error) {
	v, err := p.readVarint()
	if err != nil {
		return 0, 0, 0, err
	}
	size, err := p.m.count(v)
	if size == 0 {
		return 0, 0, 0, err
	}
	kv, err := p.readByteRaw()
	if err != nil {
		return 0, 0, 0, err
	}
	kt, err := fromCompactType(kv >> 4)
	if err != nil {
		return 0, 0, 0, err
	}
	vt, err := fromCompactType(kv & 0x0f)
	if err != nil {
		return 0, 0, 0, err
	}
	return kt, vt, size, nil
}

// ReadListBegin parses the compact list header.
func (p *TCompactProtocol) ReadListBegin() (TType, int, error) {
	b, err := p.readByteRaw()
	if err != nil {
		return 0, 0, err
	}
	et, err := fromCompactType(b & 0x0f)
	if err != nil {
		return 0, 0, err
	}
	size := uint64(b >> 4)
	if size == 15 {
		if size, err = p.readVarint(); err != nil {
			return 0, 0, err
		}
	}
	n, err := p.m.count(size)
	return et, n, err
}

// ReadSetBegin parses the compact set header.
func (p *TCompactProtocol) ReadSetBegin() (TType, int, error) { return p.ReadListBegin() }

// ReadBool returns a pending field-header bool or reads a value byte.
func (p *TCompactProtocol) ReadBool() (bool, error) {
	if p.havePendingBool {
		p.havePendingBool = false
		return p.pendingBoolValue, nil
	}
	b, err := p.readByteRaw()
	return b == ctBoolTrue, err
}

// ReadI8 reads one byte.
func (p *TCompactProtocol) ReadI8() (int8, error) {
	b, err := p.readByteRaw()
	return int8(b), err
}

// ReadI16 reads a zigzag varint.
func (p *TCompactProtocol) ReadI16() (int16, error) {
	v, err := p.readVarint()
	return int16(unzig32(v)), err
}

// ReadI32 reads a zigzag varint.
func (p *TCompactProtocol) ReadI32() (int32, error) {
	v, err := p.readVarint()
	return unzig32(v), err
}

// ReadI64 reads a zigzag varint.
func (p *TCompactProtocol) ReadI64() (int64, error) {
	v, err := p.readVarint()
	return unzig64(v), err
}

// ReadDouble reads a little-endian IEEE-754 double.
func (p *TCompactProtocol) ReadDouble() (float64, error) {
	b, err := p.m.next(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// ReadString reads a varint-length-prefixed string.
func (p *TCompactProtocol) ReadString() (string, error) {
	b, err := p.readLenPrefixed()
	return string(b), err
}

// ReadStrings reads len(dst) varint-length-prefixed strings into dst, all
// cut from one allocation.
func (p *TCompactProtocol) ReadStrings(dst []string) error {
	return p.m.readStrings(dst, p.readLenPrefixed)
}

// ReadBinary reads a varint-length-prefixed byte slice, owned as the
// buffer says (see TBinaryProtocol.ReadBinary).
func (p *TCompactProtocol) ReadBinary() ([]byte, error) {
	n, err := p.readLen()
	if err != nil {
		return nil, err
	}
	return p.m.binaryField(n)
}

// readLen parses a varint length; one no buffer could back becomes one
// the buffer's own check refuses.
func (p *TCompactProtocol) readLen() (int, error) {
	v, err := p.readVarint()
	return int(min(v, math.MaxInt32)), err
}

// readLenPrefixed returns the bytes behind a varint length as a window
// onto the buffer.
func (p *TCompactProtocol) readLenPrefixed() ([]byte, error) {
	n, err := p.readLen()
	if err != nil {
		return nil, err
	}
	return p.m.next(n)
}
