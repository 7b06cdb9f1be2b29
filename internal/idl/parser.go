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
	refs     []typeRef // checked against the declarations by resolve
	Warnings []string
}

// typeRef is a named type, or the type of a throws entry.
type typeRef struct {
	ty     *Type
	throws bool
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
			if err := p.resolve(doc); err != nil {
				return nil, err
			}
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
			if scope.Text != "go" {
				return nil, p.errf(scope, "namespace %s is not supported (only namespace go)", scope.Text)
			}
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			doc.Namespace = name.Text
		case "struct", "exception":
			s, err := p.parseStruct(t.Text == "exception")
			if err != nil {
				return nil, err
			}
			doc.Structs = append(doc.Structs, s)
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

// resolve checks that every named type is a struct or exception declared
// in the document, and that every throws entry is an exception.
func (p *Parser) resolve(doc *Document) error {
	isExc := map[string]bool{}
	for _, s := range doc.Structs {
		isExc[s.Name] = s.IsException
	}
	for _, r := range p.refs {
		exc, ok := isExc[r.ty.Name]
		switch {
		case r.ty.Kind == TypeNamed && !ok:
			return p.errf(r.ty.at, "undeclared type %q", r.ty.Name)
		case r.throws && !exc:
			return p.errf(r.ty.at, "throws %q, which is not an exception", r.ty.at.Text)
		}
	}
	return nil
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

// parseField parses "ID ':' Type name sep?".
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
	if p.atKeyword("required") || p.atKeyword("optional") {
		return nil, p.errf(p.cur(), "%s fields are not supported", p.cur().Text)
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokEquals {
		return nil, p.errf(p.cur(), "field defaults are not supported")
	}
	p.skipListSep()
	return &Field{ID: id, Name: name.Text, Type: ty}, nil
}

var baseTypes = map[string]TypeKind{
	"bool": TypeBool, "i32": TypeI32, "i64": TypeI64, "string": TypeString, "binary": TypeBinary,
}

func (p *Parser) parseType() (*Type, error) {
	t, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if k, ok := baseTypes[t.Text]; ok {
		return &Type{Kind: k, at: t}, nil
	}
	switch t.Text {
	case "list":
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
		return &Type{Kind: TypeList, Elem: elem, at: t}, nil
	case "void":
		return nil, p.errf(t, "void is only valid as a return type")
	}
	if p.cur().Kind == TokLAngle {
		return nil, p.errf(t, "unknown container type %q (only list)", t.Text)
	}
	ty := &Type{Kind: TypeNamed, Name: t.Text, at: t}
	p.refs = append(p.refs, typeRef{ty: ty})
	return ty, nil
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
			p.refs = append(p.refs, typeRef{ty: f.Type, throws: true})
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
