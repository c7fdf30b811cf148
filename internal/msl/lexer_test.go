package msl

import (
	"testing"

	"medmaker/internal/oem"
)

func lexAll(src string) []token {
	l := newLexer(src)
	var out []token
	for {
		t := l.next()
		out = append(out, t)
		if t.kind == tEOF {
			return out
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	cases := []struct {
		src  string
		want []tokenKind
	}{
		{"3", []tokenKind{tNumber, tEOF}},
		{"-3", []tokenKind{tNumber, tEOF}},
		{"3.5", []tokenKind{tNumber, tEOF}},
		{"3.", []tokenKind{tNumber, tPeriod, tEOF}}, // "3" then terminator
		{".5", []tokenKind{tNumber, tEOF}},          // fraction
		{"1e3", []tokenKind{tNumber, tEOF}},
		{"1e-3", []tokenKind{tNumber, tEOF}},
		{"1E+3", []tokenKind{tNumber, tEOF}},
		{"1e", []tokenKind{tNumber, tIdent, tEOF}},    // no exponent digits
		{"2.5.", []tokenKind{tNumber, tPeriod, tEOF}}, // number then rule end
	}
	for _, c := range cases {
		toks := lexAll(c.src)
		if len(toks) != len(c.want) {
			t.Errorf("lex(%q): %d tokens, want %d: %v", c.src, len(toks), len(c.want), toks)
			continue
		}
		for i := range toks {
			if toks[i].kind != c.want[i] {
				t.Errorf("lex(%q)[%d] = %v, want kind %d", c.src, i, toks[i], c.want[i])
			}
		}
	}
}

func TestLexerStringsAndEscapes(t *testing.T) {
	toks := lexAll(`'a\'b\\c\nd'`)
	if toks[0].kind != tString || toks[0].text != "a'b\\c\nd" {
		t.Fatalf("escape handling: %q", toks[0].text)
	}
	// Multi-line strings track line numbers.
	toks2 := lexAll("'a\nb' X")
	if toks2[1].kind != tVar || toks2[1].line != 2 {
		t.Fatalf("line tracking across strings: %+v", toks2[1])
	}
	// Unterminated string is rejected at parse level.
	if _, err := ParseRule(`<a 'oops> :- <b>@s.`); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestLexerUnicodeIdentifiers(t *testing.T) {
	// Unicode letters work in identifiers; case decides var vs label.
	r, err := ParseRule(`<büro B> :- <Über {<büro B>}>@s.`)
	if err != nil {
		t.Fatal(err)
	}
	pc := r.Tail[0].(*PatternConjunct)
	if _, isVar := pc.Pattern.Label.(*Var); !isVar {
		t.Fatalf("Über should be a variable: %v", pc.Pattern.Label)
	}
	if r.Head[0].(*ObjectPattern).LabelName() != "büro" {
		t.Fatalf("unicode label lost")
	}
}

func TestLexerStrayCharacters(t *testing.T) {
	// Unknown punctuation becomes a one-byte ident the parser rejects
	// with a position.
	if _, err := ParseProgram(`<a {X}> :- <b {X}>@s ^.`); err == nil {
		t.Fatal("stray character accepted")
	}
}

func TestFractionValueParses(t *testing.T) {
	r := MustParseRule(`<out {<ratio .5>}> :- <in {<ratio .5>}>@s.`)
	op := r.Head[0].(*ObjectPattern).Value.(*SetPattern).Elems[0].(*ObjectPattern)
	c, ok := op.Value.(*Const)
	if !ok || !c.Value.Equal(oem.Float(0.5)) {
		t.Fatalf("fraction constant: %v", op.Value)
	}
}

// TestLexerLookaheadAllocs pins the parse cost of the query the mediator
// ships to cs once per person on a full-view scan. Draining the lookahead
// used to reslice past its head, so every later peek reallocated it.
func TestLexerLookaheadAllocs(t *testing.T) {
	const probe = `_O :- _O:<student {<first_name 'F0000'> <last_name 'L0000'> | Rest2_0_1}>@cs.`
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseQuery(probe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 { // 35 measured; 53 before the in-place shift
		t.Fatalf("%.0f allocs per parse of a cs probe, want at most 40", allocs)
	}
}
