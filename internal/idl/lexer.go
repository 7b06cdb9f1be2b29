// Package idl implements the HatRPC interface-definition language: the
// subset of the Apache Thrift IDL that HatRPC compiles, extended with the
// hierarchical hint grammar of the paper's Figure 7. It accepts
// "namespace go", struct, exception, and service with hint groups,
// oneway, void and throws, over bool, i32, i64, string, binary, list<T>
// and declared structs; any other Thrift construct is an error at its
// file:line:col. The original Thrift compiler uses flex and Bison; this
// package plays that role with a hand-written lexer and recursive-descent
// parser producing an AST the code generator consumes.
package idl

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokStringLit
	TokLBrace   // {
	TokRBrace   // }
	TokLParen   // (
	TokRParen   // )
	TokLBracket // [
	TokRBracket // ]
	TokLAngle   // <
	TokRAngle   // >
	TokComma    // ,
	TokSemi     // ;
	TokColon    // :
	TokEquals   // =
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokIntLit:
		return "integer"
	case TokStringLit:
		return "string"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokLAngle:
		return "'<'"
	case TokRAngle:
		return "'>'"
	case TokComma:
		return "','"
	case TokSemi:
		return "';'"
	case TokColon:
		return "':'"
	case TokEquals:
		return "'='"
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// Error is a lexing or parsing error with position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// Lexer tokenizes IDL source. Thrift comment styles are all supported:
// //, #, and /* ... */.
type Lexer struct {
	file string
	src  []rune
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src; file names error positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: []rune(src), line: 1, col: 1}
}

func (l *Lexer) errf(format string, args ...any) *Error {
	return &Error{File: l.file, Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() rune {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	r := l.peek()
	mk := func(k TokKind, text string) Token {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	switch {
	case isIdentStart(r):
		var b strings.Builder
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			b.WriteRune(l.advance())
		}
		return mk(TokIdent, b.String()), nil
	case unicode.IsDigit(r) || ((r == '-' || r == '+') && unicode.IsDigit(l.peek2())):
		var b strings.Builder
		if r == '-' || r == '+' {
			b.WriteRune(l.advance())
		}
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			b.WriteRune(l.advance())
		}
		return mk(TokIntLit, b.String()), nil
	case r == '"' || r == '\'':
		quote := l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated string literal")
			}
			c := l.advance()
			if c == quote {
				break
			}
			if c == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteRune('\n')
				case 't':
					b.WriteRune('\t')
				case '\\', '"', '\'':
					b.WriteRune(esc)
				default:
					return Token{}, l.errf("bad escape \\%c", esc)
				}
				continue
			}
			b.WriteRune(c)
		}
		return mk(TokStringLit, b.String()), nil
	}
	l.advance()
	switch r {
	case '{':
		return mk(TokLBrace, "{"), nil
	case '}':
		return mk(TokRBrace, "}"), nil
	case '(':
		return mk(TokLParen, "("), nil
	case ')':
		return mk(TokRParen, ")"), nil
	case '[':
		return mk(TokLBracket, "["), nil
	case ']':
		return mk(TokRBracket, "]"), nil
	case '<':
		return mk(TokLAngle, "<"), nil
	case '>':
		return mk(TokRAngle, ">"), nil
	case ',':
		return mk(TokComma, ","), nil
	case ';':
		return mk(TokSemi, ";"), nil
	case ':':
		return mk(TokColon, ":"), nil
	case '=':
		return mk(TokEquals, "="), nil
	}
	return Token{}, l.errf("unexpected character %q", r)
}

// Tokenize lexes the entire source.
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
