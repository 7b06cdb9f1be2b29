// Package thrift is a compact re-implementation of the Apache Thrift
// runtime library for Go, providing the pieces HatRPC's generated code
// needs: the TTransport and TProtocol abstractions, Binary and Compact
// wire protocols, the memory transport messages are serialized through
// (generated code and trdma are message-level: the engine frames), and
// application exceptions.
//
// The wire formats follow the upstream Thrift specifications, so the
// serialization behaviour (and its costs, which the simulation charges by
// byte count) is faithful to what the paper's vanilla-Thrift baseline
// pays.
package thrift

import "fmt"

// TType is a Thrift wire type identifier.
type TType byte

// Thrift wire types.
const (
	STOP   TType = 0
	VOID   TType = 1
	BOOL   TType = 2
	BYTE   TType = 3
	DOUBLE TType = 4
	I16    TType = 6
	I32    TType = 8
	I64    TType = 10
	STRING TType = 11
	STRUCT TType = 12
	MAP    TType = 13
	SET    TType = 14
	LIST   TType = 15
)

var ttypeNames = [...]string{
	STOP: "STOP", VOID: "VOID", BOOL: "BOOL", BYTE: "BYTE", DOUBLE: "DOUBLE", I16: "I16", I32: "I32",
	I64: "I64", STRING: "STRING", STRUCT: "STRUCT", MAP: "MAP", SET: "SET", LIST: "LIST",
}

func (t TType) String() string {
	if int(t) < len(ttypeNames) && ttypeNames[t] != "" {
		return ttypeNames[t]
	}
	return fmt.Sprintf("TType(%d)", byte(t))
}

// TMessageType classifies RPC messages.
type TMessageType int32

// Message types.
const (
	CALL      TMessageType = 1
	REPLY     TMessageType = 2
	EXCEPTION TMessageType = 3
	ONEWAY    TMessageType = 4
)

// TTransport is the one transport there is, the memory buffer a message
// is serialized into or decoded from: generated code and trdma are
// message-level, and the engine frames.
type TTransport = *TMemoryBuffer

// TProtocol is the serialization abstraction over a TTransport. It
// writes only the wire types generated code writes, but reads every wire
// type, so that Skip can step over any field a peer sends. A write grows
// the memory buffer and so cannot fail; a read can, on any byte a peer
// sends. Neither wire protocol writes a field's name, so none is asked
// for or returned, and no end of a message, field or container is marked
// on the wire, so only a struct's end is a call (compact's field ids are
// deltas within a struct).
type TProtocol interface {
	WriteMessageBegin(name string, typeID TMessageType, seqid int32)
	WriteStructBegin()
	WriteStructEnd()
	WriteFieldBegin(typeID TType, id int16)
	WriteFieldStop()
	WriteListBegin(elemType TType, size int)
	WriteBool(v bool)
	WriteI8(v int8)
	WriteI32(v int32)
	WriteI64(v int64)
	WriteString(v string)
	WriteBinary(v []byte)

	ReadMessageBegin() (name string, typeID TMessageType, seqid int32, err error)
	ReadStructBegin()
	ReadStructEnd()
	ReadFieldBegin() (typeID TType, id int16, err error)
	ReadMapBegin() (keyType, valueType TType, size int, err error)
	ReadListBegin() (elemType TType, size int, err error)
	ReadSetBegin() (elemType TType, size int, err error)
	ReadBool() (bool, error)
	ReadI8() (int8, error)
	ReadI16() (int16, error)
	ReadI32() (int32, error)
	ReadI64() (int64, error)
	ReadDouble() (float64, error)
	ReadString() (string, error)
	ReadBinary() ([]byte, error)
	// ReadStrings fills dst with the next len(dst) strings — the elements
	// of a list<string> whose header counted len(dst) — and makes one
	// allocation for all of them.
	ReadStrings(dst []string) error
}

// maxSkipDepth bounds the nesting Skip will follow. Legitimate HatRPC
// schemas nest a handful of levels; a crafted message of thousands of
// nested struct/list headers (3 bytes each on the wire) must not be
// able to exhaust the goroutine stack.
const maxSkipDepth = 64

// Skip reads and discards a value of the given type.
func Skip(p TProtocol, t TType) error {
	return skip(p, t, 0)
}

func skip(p TProtocol, t TType, depth int) error {
	if depth > maxSkipDepth {
		return fmt.Errorf("thrift: skip nesting exceeds %d levels", maxSkipDepth)
	}
	switch t {
	case BOOL:
		_, err := p.ReadBool()
		return err
	case BYTE:
		_, err := p.ReadI8()
		return err
	case I16:
		_, err := p.ReadI16()
		return err
	case I32:
		_, err := p.ReadI32()
		return err
	case I64:
		_, err := p.ReadI64()
		return err
	case DOUBLE:
		_, err := p.ReadDouble()
		return err
	case STRING:
		_, err := p.ReadBinary()
		return err
	case STRUCT:
		p.ReadStructBegin()
		for {
			ft, _, err := p.ReadFieldBegin()
			if err != nil {
				return err
			}
			if ft == STOP {
				break
			}
			if err := skip(p, ft, depth+1); err != nil {
				return err
			}
		}
		p.ReadStructEnd()
		return nil
	case MAP:
		kt, vt, size, err := p.ReadMapBegin()
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			if err := skip(p, kt, depth+1); err != nil {
				return err
			}
			if err := skip(p, vt, depth+1); err != nil {
				return err
			}
		}
		return nil
	case SET:
		et, size, err := p.ReadSetBegin()
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			if err := skip(p, et, depth+1); err != nil {
				return err
			}
		}
		return nil
	case LIST:
		et, size, err := p.ReadListBegin()
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			if err := skip(p, et, depth+1); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("thrift: cannot skip type %v", t)
	}
}

// ApplicationExceptionType classifies TApplicationException.
type ApplicationExceptionType int32

// The application exception codes generated code raises, numbered as in
// upstream Thrift.
const (
	ExcUnknownMethod ApplicationExceptionType = 1
	ExcBadSequenceID ApplicationExceptionType = 4
	ExcMissingResult ApplicationExceptionType = 5
	ExcInternalError ApplicationExceptionType = 6
	ExcProtocolError ApplicationExceptionType = 7
)

// TApplicationException is the standard Thrift RPC-level error.
type TApplicationException struct {
	Message string
	Type    ApplicationExceptionType
}

// NewApplicationException builds an exception value.
func NewApplicationException(t ApplicationExceptionType, msg string) *TApplicationException {
	return &TApplicationException{Message: msg, Type: t}
}

func (e *TApplicationException) Error() string {
	return fmt.Sprintf("thrift: application exception (%d): %s", e.Type, e.Message)
}

// Write serializes the exception in the standard layout.
func (e *TApplicationException) Write(p TProtocol) {
	p.WriteStructBegin()
	if e.Message != "" {
		p.WriteFieldBegin(STRING, 1)
		p.WriteString(e.Message)
	}
	p.WriteFieldBegin(I32, 2)
	p.WriteI32(int32(e.Type))
	p.WriteFieldStop()
	p.WriteStructEnd()
}

// Read deserializes the exception.
func (e *TApplicationException) Read(p TProtocol) error {
	p.ReadStructBegin()
	for {
		ft, id, err := p.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == STOP {
			break
		}
		switch {
		case id == 1 && ft == STRING:
			if e.Message, err = p.ReadString(); err != nil {
				return err
			}
		case id == 2 && ft == I32:
			var v int32
			if v, err = p.ReadI32(); err != nil {
				return err
			}
			e.Type = ApplicationExceptionType(v)
		default:
			if err := Skip(p, ft); err != nil {
				return err
			}
		}
	}
	p.ReadStructEnd()
	return nil
}
