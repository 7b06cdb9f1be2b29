package idl

import (
	"fmt"
	"strconv"

	"hatrpc/internal/hints"
)

// Parser is a recursive-descent parser for the HatRPC IDL. Invalid hint
// key/value pairs do not fail the parse: following the paper (§4.2), they
// are filtered out and reported as warnings.
type Parser struct {
	file     string
	toks     []Token
	pos      int
	Warnings []string
}

// NewParser returns a parser over pre-lexed tokens.
func NewParser(file string, toks []Token) *Parser {
	return &Parser{file: file, toks: toks}
}

// Parse lexes and parses an IDL source file.
func Parse(file, src string) (*Document, []string, error) {
	toks, err := Tokenize(file, src)
	if err != nil {
		return nil, nil, err
	}
	p := NewParser(file, toks)
	doc, err := p.ParseDocument()
	return doc, p.Warnings, err
}

// MustParse parses src and panics on error; for tests and examples.
func MustParse(file, src string) *Document {
	doc, _, err := Parse(file, src)
	if err != nil {
		panic(err)
	}
	return doc
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) errf(t Token, format string, args ...any) error {
	return &Error{File: p.file, Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errf(t, "expected %s, got %s", k, t)
	}
	p.pos++
	return t, nil
}

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokIdent && t.Text == kw
}

// skipListSep consumes an optional ',' or ';'.
func (p *Parser) skipListSep() {
	if k := p.cur().Kind; k == TokComma || k == TokSemi {
		p.pos++
	}
}

// ParseDocument parses the whole token stream.
func (p *Parser) ParseDocument() (*Document, error) {
	doc := &Document{File: p.file}
	for {
		t := p.cur()
		if t.Kind == TokEOF {
			return doc, nil
		}
		if t.Kind != TokIdent {
			return nil, p.errf(t, "expected definition, got %s", t)
		}
		switch t.Text {
		case "namespace":
			p.pos++
			scope, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if scope.Text == "go" || scope.Text == "*" {
				doc.Namespace = name.Text
			}
		case "include":
			p.pos++
			if _, err := p.expect(TokStringLit); err != nil {
				return nil, err
			}
		case "typedef":
			td, err := p.parseTypedef()
			if err != nil {
				return nil, err
			}
			doc.Typedefs = append(doc.Typedefs, td)
		case "enum":
			e, err := p.parseEnum()
			if err != nil {
				return nil, err
			}
			doc.Enums = append(doc.Enums, e)
		case "struct", "exception":
			s, err := p.parseStruct(t.Text == "exception")
			if err != nil {
				return nil, err
			}
			doc.Structs = append(doc.Structs, s)
		case "const":
			c, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			doc.Consts = append(doc.Consts, c)
		case "service":
			s, err := p.parseService()
			if err != nil {
				return nil, err
			}
			doc.Services = append(doc.Services, s)
		default:
			return nil, p.errf(t, "unknown definition keyword %q", t.Text)
		}
	}
}

func (p *Parser) parseTypedef() (*Typedef, error) {
	p.pos++ // typedef
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	p.skipListSep()
	return &Typedef{Name: name.Text, Type: ty}, nil
}

func (p *Parser) parseEnum() (*Enum, error) {
	p.pos++ // enum
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	e := &Enum{Name: name.Text}
	nextVal := 0
	for p.cur().Kind != TokRBrace {
		vn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		val := nextVal
		if p.cur().Kind == TokEquals {
			p.pos++
			iv, err := p.expect(TokIntLit)
			if err != nil {
				return nil, err
			}
			val, err = strconv.Atoi(iv.Text)
			if err != nil {
				return nil, p.errf(iv, "bad enum value %q", iv.Text)
			}
		}
		nextVal = val + 1
		e.Values = append(e.Values, EnumValue{Name: vn.Text, Value: val})
		p.skipListSep()
	}
	p.pos++ // }
	return e, nil
}

func (p *Parser) parseStruct(isExc bool) (*Struct, error) {
	p.pos++ // struct/exception
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	s := &Struct{Name: name.Text, IsException: isExc}
	for p.cur().Kind != TokRBrace {
		f, err := p.parseField()
		if err != nil {
			return nil, err
		}
		s.Fields = append(s.Fields, f)
	}
	p.pos++ // }
	return s, nil
}

// parseField parses "ID ':' ('required'|'optional')? Type name (= default)? sep?".
func (p *Parser) parseField() (*Field, error) {
	idTok, err := p.expect(TokIntLit)
	if err != nil {
		return nil, err
	}
	id, err := strconv.Atoi(idTok.Text)
	if err != nil || id <= 0 {
		return nil, p.errf(idTok, "bad field id %q", idTok.Text)
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	optional := false
	if p.atKeyword("required") {
		p.pos++
	} else if p.atKeyword("optional") {
		optional = true
		p.pos++
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokEquals { // default value: parsed and discarded
		p.pos++
		switch p.cur().Kind {
		case TokIntLit, TokDoubleLit, TokStringLit, TokIdent:
			p.pos++
		default:
			return nil, p.errf(p.cur(), "bad default value %s", p.cur())
		}
	}
	p.skipListSep()
	return &Field{ID: id, Name: name.Text, Type: ty, Optional: optional}, nil
}

func (p *Parser) parseConst() (*Const, error) {
	p.pos++ // const
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEquals); err != nil {
		return nil, err
	}
	v := p.cur()
	switch v.Kind {
	case TokIntLit, TokDoubleLit, TokStringLit, TokIdent:
		p.pos++
	default:
		return nil, p.errf(v, "bad const value %s", v)
	}
	p.skipListSep()
	return &Const{Name: name.Text, Type: ty, Value: v.Text}, nil
}

var baseTypes = map[string]TypeKind{
	"bool": TypeBool, "byte": TypeByte, "i8": TypeByte,
	"i16": TypeI16, "i32": TypeI32, "i64": TypeI64,
	"double": TypeDouble, "string": TypeString, "binary": TypeBinary,
}

func (p *Parser) parseType() (*Type, error) {
	t, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if k, ok := baseTypes[t.Text]; ok {
		return &Type{Kind: k}, nil
	}
	switch t.Text {
	case "list", "set":
		if _, err := p.expect(TokLAngle); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRAngle); err != nil {
			return nil, err
		}
		kind := TypeList
		if t.Text == "set" {
			kind = TypeSet
		}
		return &Type{Kind: kind, Elem: elem}, nil
	case "map":
		if _, err := p.expect(TokLAngle); err != nil {
			return nil, err
		}
		key, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		val, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRAngle); err != nil {
			return nil, err
		}
		return &Type{Kind: TypeMap, KeyTy: key, Elem: val}, nil
	case "void":
		return nil, p.errf(t, "void is only valid as a return type")
	}
	return &Type{Kind: TypeNamed, Name: t.Text}, nil
}

// atHintGroup reports whether the cursor sits on a hint/s_hint/c_hint
// group introducer.
func (p *Parser) atHintGroup() bool {
	t := p.cur()
	if t.Kind != TokIdent {
		return false
	}
	if t.Text != "hint" && t.Text != "s_hint" && t.Text != "c_hint" {
		return false
	}
	return p.toks[p.pos+1].Kind == TokColon
}

// parseHintGroup parses "('hint'|'s_hint'|'c_hint') ':' Hint (',' Hint)* ';'"
// into the given set. Invalid hints are dropped with a warning.
func (p *Parser) parseHintGroup(set *hints.Set) error {
	kw := p.next() // hint keyword
	side := hints.SideShared
	switch kw.Text {
	case "s_hint":
		side = hints.SideServer
	case "c_hint":
		side = hints.SideClient
	}
	if _, err := p.expect(TokColon); err != nil {
		return err
	}
	for {
		keyTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokEquals); err != nil {
			return err
		}
		valTok := p.cur()
		switch valTok.Kind {
		case TokIdent, TokIntLit, TokStringLit:
			p.pos++
		default:
			return p.errf(valTok, "bad hint value %s", valTok)
		}
		if err := set.Add(side, hints.Key(keyTok.Text), valTok.Text); err != nil {
			p.Warnings = append(p.Warnings, fmt.Sprintf(
				"%s:%d:%d: dropping invalid hint: %v", p.file, keyTok.Line, keyTok.Col, err))
		}
		if p.cur().Kind == TokComma {
			p.pos++
			continue
		}
		break
	}
	_, err := p.expect(TokSemi)
	return err
}

func (p *Parser) parseService() (*Service, error) {
	p.pos++ // service
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	svc := &Service{Name: name.Text, Hints: hints.NewSet()}
	if p.atKeyword("extends") {
		p.pos++
		ext, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		svc.Extends = ext.Text
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for p.cur().Kind != TokRBrace {
		if p.atHintGroup() {
			if err := p.parseHintGroup(svc.Hints); err != nil {
				return nil, err
			}
			continue
		}
		fn, err := p.parseFunction()
		if err != nil {
			return nil, err
		}
		if prev := svc.FindFunction(fn.Name); prev != fn && prev != nil {
			return nil, p.errf(p.cur(), "duplicate function %q in service %q", fn.Name, svc.Name)
		}
		svc.Functions = append(svc.Functions, fn)
	}
	p.pos++ // }
	return svc, nil
}

// parseFunction parses
// "'oneway'? FunctionType Identifier '(' Field* ')' Throws? ListSep? FunctionHint?"
// per Figure 7.
func (p *Parser) parseFunction() (*Function, error) {
	fn := &Function{Hints: hints.NewSet()}
	if p.atKeyword("oneway") {
		fn.Oneway = true
		p.pos++
	}
	if p.atKeyword("void") {
		p.pos++
	} else {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.Returns = ty
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	fn.Name = name.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for p.cur().Kind != TokRParen {
		f, err := p.parseField()
		if err != nil {
			return nil, err
		}
		fn.Args = append(fn.Args, f)
	}
	p.pos++ // )
	if p.atKeyword("throws") {
		p.pos++
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for p.cur().Kind != TokRParen {
			f, err := p.parseField()
			if err != nil {
				return nil, err
			}
			fn.Throws = append(fn.Throws, f)
		}
		p.pos++ // )
	}
	p.skipListSep()
	if p.cur().Kind == TokLBracket { // FunctionHint
		p.pos++
		for p.cur().Kind != TokRBracket {
			if !p.atHintGroup() {
				return nil, p.errf(p.cur(), "expected hint group in function hint block, got %s", p.cur())
			}
			if err := p.parseHintGroup(fn.Hints); err != nil {
				return nil, err
			}
		}
		p.pos++ // ]
		p.skipListSep()
	}
	if fn.Oneway && fn.Returns != nil {
		return nil, p.errf(name, "oneway function %q cannot have a return type", fn.Name)
	}
	return fn, nil
}
