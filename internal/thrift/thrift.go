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

import (
	"errors"
	"fmt"
)

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

// TTransport is the byte-level transport abstraction. Writers accumulate
// until Flush, which delivers one message/frame.
type TTransport interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Flush() error
	Close() error
}

// ErrTransportClosed is returned by operations on a closed transport.
var ErrTransportClosed = errors.New("thrift: transport closed")

// TProtocol is the serialization abstraction over a TTransport. It
// writes only the wire types generated code writes, but reads every wire
// type, so that Skip can step over any field a peer sends.
type TProtocol interface {
	WriteMessageBegin(name string, typeID TMessageType, seqid int32) error
	WriteMessageEnd() error
	WriteStructBegin(name string) error
	WriteStructEnd() error
	WriteFieldBegin(name string, typeID TType, id int16) error
	WriteFieldEnd() error
	WriteFieldStop() error
	WriteListBegin(elemType TType, size int) error
	WriteListEnd() error
	WriteBool(v bool) error
	WriteI8(v int8) error
	WriteI32(v int32) error
	WriteI64(v int64) error
	WriteString(v string) error
	WriteBinary(v []byte) error

	ReadMessageBegin() (name string, typeID TMessageType, seqid int32, err error)
	ReadMessageEnd() error
	ReadStructBegin() (name string, err error)
	ReadStructEnd() error
	ReadFieldBegin() (name string, typeID TType, id int16, err error)
	ReadFieldEnd() error
	ReadMapBegin() (keyType, valueType TType, size int, err error)
	ReadMapEnd() error
	ReadListBegin() (elemType TType, size int, err error)
	ReadListEnd() error
	ReadSetBegin() (elemType TType, size int, err error)
	ReadSetEnd() error
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

	Flush() error
	Transport() TTransport
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
		if _, err := p.ReadStructBegin(); err != nil {
			return err
		}
		for {
			_, ft, _, err := p.ReadFieldBegin()
			if err != nil {
				return err
			}
			if ft == STOP {
				break
			}
			if err := skip(p, ft, depth+1); err != nil {
				return err
			}
			if err := p.ReadFieldEnd(); err != nil {
				return err
			}
		}
		return p.ReadStructEnd()
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
		return p.ReadMapEnd()
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
		return p.ReadSetEnd()
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
		return p.ReadListEnd()
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
func (e *TApplicationException) Write(p TProtocol) error {
	if err := p.WriteStructBegin("TApplicationException"); err != nil {
		return err
	}
	if e.Message != "" {
		if err := p.WriteFieldBegin("message", STRING, 1); err != nil {
			return err
		}
		if err := p.WriteString(e.Message); err != nil {
			return err
		}
		if err := p.WriteFieldEnd(); err != nil {
			return err
		}
	}
	if err := p.WriteFieldBegin("type", I32, 2); err != nil {
		return err
	}
	if err := p.WriteI32(int32(e.Type)); err != nil {
		return err
	}
	if err := p.WriteFieldEnd(); err != nil {
		return err
	}
	if err := p.WriteFieldStop(); err != nil {
		return err
	}
	return p.WriteStructEnd()
}

// Read deserializes the exception.
func (e *TApplicationException) Read(p TProtocol) error {
	if _, err := p.ReadStructBegin(); err != nil {
		return err
	}
	for {
		_, ft, id, err := p.ReadFieldBegin()
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
		if err := p.ReadFieldEnd(); err != nil {
			return err
		}
	}
	return p.ReadStructEnd()
}
