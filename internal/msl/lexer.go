package msl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tEOF     tokenKind = iota
	tLAngle            // <
	tRAngle            // >
	tLBrace            // {
	tRBrace            // }
	tLParen            // (
	tRParen            // )
	tPipe              // |
	tComma             // ,
	tPeriod            // .
	tColon             // :
	tImplies           // :-
	tAt                // @
	tPercent           // %
	tIdent             // lower-case identifier: label constant or keyword
	tVar               // upper-case identifier or _: variable
	tParam             // $name
	tOID               // &name
	tString            // '…'
	tNumber            // 42, 2.5, -1e3
	tBool              // true / false
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tLAngle:
		return "'<'"
	case tRAngle:
		return "'>'"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tPipe:
		return "'|'"
	case tComma:
		return "','"
	case tPeriod:
		return "'.'"
	case tColon:
		return "':'"
	case tImplies:
		return "':-'"
	case tAt:
		return "'@'"
	case tPercent:
		return "'%'"
	case tString:
		return fmt.Sprintf("string %q", t.text)
	case tParam:
		return "$" + t.text
	case tOID:
		return t.text
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src    string
	pos    int
	line   int
	peeked []token
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) peek() token { return l.peekN(0) }

// peekN looks ahead n tokens (0 = next).
func (l *lexer) peekN(n int) token {
	for len(l.peeked) <= n {
		l.peeked = append(l.peeked, l.scan())
	}
	return l.peeked[n]
}

func (l *lexer) next() token {
	if n := len(l.peeked); n > 0 {
		t := l.peeked[0]
		// Shift down in place: reslicing past the head would shrink the
		// capacity until the next peek reallocates.
		copy(l.peeked, l.peeked[1:])
		l.peeked = l.peeked[:n-1]
		return t
	}
	return l.scan()
}

func (l *lexer) scan() token {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line}
	}
	start := l.line
	c := l.src[l.pos]
	switch c {
	case '<':
		l.pos++
		return token{kind: tLAngle, line: start}
	case '>':
		l.pos++
		return token{kind: tRAngle, line: start}
	case '{':
		l.pos++
		return token{kind: tLBrace, line: start}
	case '}':
		l.pos++
		return token{kind: tRBrace, line: start}
	case '(':
		l.pos++
		return token{kind: tLParen, line: start}
	case ')':
		l.pos++
		return token{kind: tRParen, line: start}
	case '|':
		l.pos++
		return token{kind: tPipe, line: start}
	case ',':
		l.pos++
		return token{kind: tComma, line: start}
	case '@':
		l.pos++
		return token{kind: tAt, line: start}
	case '%':
		l.pos++
		return token{kind: tPercent, line: start}
	case ';':
		// Tolerated as a rule terminator alongside '.'.
		l.pos++
		return token{kind: tPeriod, line: start}
	case ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			l.pos += 2
			return token{kind: tImplies, line: start}
		}
		l.pos++
		return token{kind: tColon, line: start}
	case '$':
		l.pos++
		word := l.scanWord()
		return token{kind: tParam, text: word, line: start}
	case '&':
		l.pos++
		word := l.scanWord()
		return token{kind: tOID, text: "&" + word, line: start}
	case '\'':
		return l.scanString()
	case '.':
		// Could be a period terminator or the start of a fraction; a
		// terminator is never followed by a digit.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.scanNumber()
		}
		l.pos++
		return token{kind: tPeriod, line: start}
	}
	if c == '-' || c >= '0' && c <= '9' {
		return l.scanNumber()
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	if r == '_' || unicode.IsLetter(r) {
		word := l.scanWord()
		switch word {
		case "true", "false":
			return token{kind: tBool, text: word, line: start}
		}
		first, _ := utf8.DecodeRuneInString(word)
		if first == '_' || unicode.IsUpper(first) {
			return token{kind: tVar, text: word, line: start}
		}
		return token{kind: tIdent, text: word, line: start}
	}
	l.pos++
	return token{kind: tIdent, text: string(c), line: start}
}

func (l *lexer) scanWord() string {
	j := l.pos
	for j < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[j:])
		if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		j += sz
	}
	w := l.src[l.pos:j]
	l.pos = j
	return w
}

func (l *lexer) scanString() token {
	start := l.line
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '\'':
			l.pos++
			return token{kind: tString, text: sb.String(), line: start}
		case '\\':
			l.pos++
			if l.pos < len(l.src) {
				switch l.src[l.pos] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				default:
					sb.WriteByte(l.src[l.pos])
				}
				l.pos++
			}
		case '\n':
			l.line++
			sb.WriteByte(c)
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{kind: tIdent, text: "'" + sb.String(), line: start} // unterminated; parser rejects
}

func (l *lexer) scanNumber() token {
	start := l.line
	j := l.pos
	if l.src[j] == '-' {
		j++
	}
	seenDigit := false
	for j < len(l.src) {
		c := l.src[j]
		if c >= '0' && c <= '9' {
			seenDigit = true
			j++
			continue
		}
		// A '.' is part of the number only when followed by a digit, so
		// "3." lexes as number 3 then a period terminator.
		if c == '.' && j+1 < len(l.src) && l.src[j+1] >= '0' && l.src[j+1] <= '9' {
			j += 2
			continue
		}
		if (c == 'e' || c == 'E') && seenDigit {
			k := j + 1
			if k < len(l.src) && (l.src[k] == '+' || l.src[k] == '-') {
				k++
			}
			if k < len(l.src) && l.src[k] >= '0' && l.src[k] <= '9' {
				j = k
				continue
			}
		}
		break
	}
	text := l.src[l.pos:j]
	l.pos = j
	return token{kind: tNumber, text: text, line: start}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			return
		}
	}
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}
