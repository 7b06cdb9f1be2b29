package idl

import (
	"hatrpc/internal/hints"
)

// Document is a parsed IDL file.
type Document struct {
	File      string
	Namespace string // go namespace (package name) if declared
	Structs   []*Struct
	Services  []*Service
}

// Struct is a user-defined record (struct or exception).
type Struct struct {
	Name        string
	IsException bool
	Fields      []*Field
}

// Field is a struct member or function argument.
type Field struct {
	ID   int
	Name string
	Type *Type
}

// Service is an RPC service with hierarchical hints.
type Service struct {
	Name      string
	Hints     *hints.Set // service-level hints (may be empty, never nil)
	Functions []*Function
}

// Function is one RPC with optional function-level hints.
type Function struct {
	Name    string
	Oneway  bool
	Returns *Type // nil for void
	Args    []*Field
	Throws  []*Field
	Hints   *hints.Set // function-level hints (may be empty, never nil)
}

// TypeKind classifies IDL types.
type TypeKind int

// Type kinds.
const (
	TypeBool TypeKind = iota
	TypeI32
	TypeI64
	TypeString
	TypeBinary
	TypeList
	TypeNamed // a struct or exception declared in the same file
)

// Type is an IDL type expression.
type Type struct {
	Kind TypeKind
	Name string // for TypeNamed
	Elem *Type  // list element
	at   Token  // where the type is written, for errors
}

// FindFunction returns the named function in the service, or nil.
func (s *Service) FindFunction(name string) *Function {
	for _, f := range s.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}
