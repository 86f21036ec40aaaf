package sdl

import (
	"fmt"
	"strconv"
	"strings"

	"charles/internal/engine"
)

// Parse parses the SDL surface syntax into a Query. The grammar
// (whitespace-insensitive) is:
//
//	query      = [ "(" ] predicates [ ")" ]
//	predicates = predicate { "," predicate }
//	predicate  = ident ":" [ range | set ]
//	range      = ("[" | "(") literal "," literal ("]" | ")")
//	set        = "{" literal { "," literal } "}"
//	literal    = number | date | quoted-string | bare-word
//
// Dates are ISO (1650-03-15), numbers without a dot or exponent are
// integers, +Inf and -Inf are floats, quoted strings use single quotes
// with ” escaping. Bare words are string literals; Bind reads the
// words NaN and Inf on a float column as those floats, so every
// rendered float parses back. The outer parentheses are optional so users can
// type `tonnage:, type: {fluit}` directly. An empty input parses to
// the empty query (no predicates).
func Parse(input string) (Query, error) {
	lx := &lexer{src: input}
	toks, err := lx.run()
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	return p.parseQuery()
}

// MustParse is Parse that panics on error, for static queries.
func MustParse(input string) Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokColon
	tokComma
	tokWord   // bare word (identifier or string literal)
	tokNumber // integer or float literal
	tokDate   // ISO date literal
	tokString // quoted string literal
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokColon:
		return "':'"
	case tokComma:
		return "','"
	case tokWord:
		return "word"
	case tokNumber:
		return "number"
	case tokDate:
		return "date"
	case tokString:
		return "string"
	default:
		return "unknown token"
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (lx *lexer) run() ([]token, error) {
	var toks []token
	for {
		lx.skipSpace()
		if lx.pos >= len(lx.src) {
			toks = append(toks, token{kind: tokEOF, pos: lx.pos})
			return toks, nil
		}
		start := lx.pos
		c := lx.src[lx.pos]
		switch {
		case c == '(':
			lx.pos++
			toks = append(toks, token{tokLParen, "(", start})
		case c == ')':
			lx.pos++
			toks = append(toks, token{tokRParen, ")", start})
		case c == '[':
			lx.pos++
			toks = append(toks, token{tokLBracket, "[", start})
		case c == ']':
			lx.pos++
			toks = append(toks, token{tokRBracket, "]", start})
		case c == '{':
			lx.pos++
			toks = append(toks, token{tokLBrace, "{", start})
		case c == '}':
			lx.pos++
			toks = append(toks, token{tokRBrace, "}", start})
		case c == ':':
			lx.pos++
			toks = append(toks, token{tokColon, ":", start})
		case c == ',':
			lx.pos++
			toks = append(toks, token{tokComma, ",", start})
		case c == '\'':
			text, err := lx.quoted()
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{tokString, text, start})
		case (c == '-' || c == '+') && lx.isInf():
			lx.pos += len("+Inf")
			toks = append(toks, token{tokNumber, lx.src[start:lx.pos], start})
		case c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9'):
			tok, err := lx.numberOrDate()
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case isWordStart(c):
			toks = append(toks, token{tokWord, lx.word(), start})
		default:
			return nil, fmt.Errorf("sdl: unexpected character %q at offset %d", c, lx.pos)
		}
	}
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case ' ', '\t', '\n', '\r':
			lx.pos++
		default:
			return
		}
	}
}

func (lx *lexer) quoted() (string, error) {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\'' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				b.WriteByte('\'') // '' escape
				lx.pos += 2
				continue
			}
			lx.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		lx.pos++
	}
	return "", fmt.Errorf("sdl: unterminated string starting at offset %d", start)
}

func isWordStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordChar(c byte) bool {
	return isWordStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.'
}

func (lx *lexer) word() string {
	start := lx.pos
	for lx.pos < len(lx.src) && isWordChar(lx.src[lx.pos]) {
		lx.pos++
	}
	return lx.src[start:lx.pos]
}

// isInf reports whether a signed infinity, +Inf or -Inf, starts at the
// current position.
func (lx *lexer) isInf() bool {
	rest := lx.src[lx.pos+1:]
	return strings.HasPrefix(rest, "Inf") && (len(rest) == 3 || !isWordChar(rest[3]))
}

// numberOrDate lexes a numeric token, promoting it to a date when it
// matches DDDD-DD-DD. A sign is taken at the start and after an
// exponent mark, as strconv.FormatFloat writes 1e+06.
func (lx *lexer) numberOrDate() (token, error) {
	start := lx.pos
	// Greedily take number-ish characters, including '-' so ISO
	// dates lex as one token.
	dateDash := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
			((c == '-' || c == '+') && (lx.pos == start || lx.src[lx.pos-1]|0x20 == 'e')) {
			lx.pos++
			continue
		}
		if c == '-' && looksLikeDateSoFar(lx.src[start:lx.pos]) {
			dateDash = true
			lx.pos++
			continue
		}
		break
	}
	text := lx.src[start:lx.pos]
	if isISODate(text) {
		return token{tokDate, text, start}, nil
	}
	if dateDash {
		return token{}, fmt.Errorf("sdl: malformed literal %q at offset %d", text, start)
	}
	if _, err := strconv.ParseFloat(text, 64); err != nil {
		return token{}, fmt.Errorf("sdl: malformed number %q at offset %d", text, start)
	}
	return token{tokNumber, text, start}, nil
}

func looksLikeDateSoFar(s string) bool {
	// Accept a '-' after 4 digits (year) or after 4+1+2 digits.
	return len(s) == 4 && allDigits(s) || (len(s) == 7 && allDigits(s[:4]) && s[4] == '-' && allDigits(s[5:]))
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func isISODate(s string) bool {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	return allDigits(s[:4]) && allDigits(s[5:7]) && allDigits(s[8:])
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return token{}, fmt.Errorf("sdl: expected %v at offset %d, found %v", kind, t.pos, t.kind)
	}
	return t, nil
}

func (p *parser) parseQuery() (Query, error) {
	wrapped := false
	if p.peek().kind == tokLParen {
		p.next()
		wrapped = true
	}
	var cs []Constraint
	for p.peek().kind == tokWord {
		c, err := p.parsePredicate()
		if err != nil {
			return Query{}, err
		}
		cs = append(cs, c)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if wrapped {
		if _, err := p.expect(tokRParen); err != nil {
			return Query{}, err
		}
	}
	if _, err := p.expect(tokEOF); err != nil {
		return Query{}, err
	}
	return NewQuery(cs...)
}

func (p *parser) parsePredicate() (Constraint, error) {
	name, err := p.expect(tokWord)
	if err != nil {
		return Constraint{}, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return Constraint{}, err
	}
	switch p.peek().kind {
	case tokLBracket, tokLParen:
		return p.parseRange(name.text)
	case tokLBrace:
		return p.parseSet(name.text)
	default:
		return Any(name.text), nil
	}
}

func (p *parser) parseRange(attr string) (Constraint, error) {
	open := p.next()
	loIncl := open.kind == tokLBracket
	lo, err := p.parseLiteral()
	if err != nil {
		return Constraint{}, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return Constraint{}, err
	}
	hi, err := p.parseLiteral()
	if err != nil {
		return Constraint{}, err
	}
	closeTok := p.next()
	var hiIncl bool
	switch closeTok.kind {
	case tokRBracket:
		hiIncl = true
	case tokRParen:
		hiIncl = false
	default:
		return Constraint{}, fmt.Errorf("sdl: expected ']' or ')' at offset %d, found %v", closeTok.pos, closeTok.kind)
	}
	return RangeC(attr, lo, hi, loIncl, hiIncl), nil
}

func (p *parser) parseSet(attr string) (Constraint, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return Constraint{}, err
	}
	var vals []engine.Value
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return Constraint{}, err
		}
		vals = append(vals, v)
		t := p.next()
		switch t.kind {
		case tokComma:
			continue
		case tokRBrace:
			return SetC(attr, vals...), nil
		default:
			return Constraint{}, fmt.Errorf("sdl: expected ',' or '}' at offset %d, found %v", t.pos, t.kind)
		}
	}
}

func (p *parser) parseLiteral() (engine.Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if !strings.ContainsAny(t.text, ".eE") {
			i, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return engine.Int(i), nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("sdl: bad number %q at offset %d", t.text, t.pos)
		}
		return engine.Float(f), nil
	case tokDate:
		days, err := engine.ParseDays(t.text)
		if err != nil {
			return engine.Value{}, err
		}
		return engine.Date(days), nil
	case tokString:
		return engine.String_(t.text), nil
	case tokWord:
		switch t.text {
		case "true":
			return engine.Bool(true), nil
		case "false":
			return engine.Bool(false), nil
		}
		return engine.String_(t.text), nil
	default:
		return engine.Value{}, fmt.Errorf("sdl: expected a literal at offset %d, found %v", t.pos, t.kind)
	}
}
