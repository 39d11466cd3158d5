package query

import (
	"strings"
	"testing"
)

// TestLexerTokens exercises every token kind and lexer edge case.
func TestLexerTokens(t *testing.T) {
	toks, err := lex("a.b, (x + y - 2.5) * 3 = <> < <= > >= 1e5 2.5e-3 _id9")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[tokenKind]bool{}
	for _, tok := range toks {
		kinds[tok.kind] = true
		if tok.kind.String() == "" {
			t.Fatalf("token kind %d renders empty", tok.kind)
		}
	}
	for _, k := range []tokenKind{tokIdent, tokNumber, tokComma, tokDot, tokLParen,
		tokRParen, tokPlus, tokMinus, tokStar, tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE, tokEOF} {
		if !kinds[k] {
			t.Fatalf("token kind %s not produced", k)
		}
	}
	if _, err := lex("a ; b"); err == nil {
		t.Fatal("unexpected character must error")
	}
	// Scientific notation without digits falls back to plain number + ident.
	toks, err = lex("2e")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "2" || toks[1].text != "e" {
		t.Fatalf("2e lexed as %q %q", toks[0].text, toks[1].text)
	}
	// Trailing dot is not part of a number.
	toks, err = lex("3.x")
	if err != nil || toks[0].text != "3" {
		t.Fatalf("3.x lexed as %q (err %v)", toks[0].text, err)
	}
	if tokenKind(99).String() == "" {
		t.Fatal("unknown token kind must render")
	}
}

// TestLexerIdentifiersByRune pins that identifiers are read rune by rune:
// a non-ASCII letter is accepted whatever its UTF-8 bytes, an error names
// the real character at its byte position, and invalid UTF-8 is refused.
func TestLexerIdentifiersByRune(t *testing.T) {
	cases := []struct {
		in, err string // err empty: in lexes as one identifier
	}{
		{in: "ê"},
		{in: "é"},
		{in: "ü"},
		{in: "名"},
		{in: "preço"},
		{in: "_x9名"},
		{in: "\xc3", err: "position 0: invalid UTF-8 byte 0xc3"},
		{in: "ab\xc3", err: "position 2: invalid UTF-8 byte 0xc3"},
		{in: "é €", err: `position 3: unexpected character "€"`},
		{in: "a ©", err: `position 2: unexpected character "©"`},
	}
	for _, c := range cases {
		toks, err := lex(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("lex(%q): %v", c.in, err)
		case c.err == "" && (len(toks) != 2 || toks[0].kind != tokIdent || toks[0].text != c.in):
			t.Errorf("lex(%q) = %v, want one identifier", c.in, toks)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("lex(%q) error = %v, want %q", c.in, err, c.err)
		}
	}
	q, err := Parse("SELECT (R.preço + 名.b) AS é FROM X R, Y 名 WHERE R.k = 名.k PREFERRING LOWEST(é)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preferring[0].Name != "é" || q.From[1].Alias != "名" {
		t.Fatalf("non-ASCII identifiers parsed as %+v", q)
	}
}

// TestParseFactorEdges covers the remaining factor forms.
func TestParseFactorEdges(t *testing.T) {
	// Unary minus compiles to a -1 scale.
	q, err := Parse(`SELECT (-R.a + 10) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.String(); !strings.Contains(got, "-1 * R.a") {
		t.Fatalf("unary minus render = %q", got)
	}
	// MIN with a single argument.
	if _, err := Parse(`SELECT (MIN(R.a)) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`SELECT (MIN R.a) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,  // missing paren
		`SELECT (MIN(R.a) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,  // unbalanced
		`SELECT (R.) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,       // missing attr
		`SELECT (+) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,        // not an expression
		`SELECT (R.a +) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,    // dangling op
		`SELECT (R.a) AS x FROM X R, Y T WHERE R.k = PREFERRING LOWEST(x)`,          // missing rhs
		`SELECT (R.a) AS x FROM X R, Y T WHERE R.k >= T.k PREFERRING LOWEST(x)`,     // join with non-eq
		`SELECT (R.a) AS x FROM X, Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,        // table without alias
		`SELECT (R.a) AS x FROM X R Y T WHERE R.k = T.k PREFERRING LOWEST(x)`,       // missing comma
		`SELECT (R.a) AS expr FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST()`,    // empty pref name
		`SELECT (R.a) AS expr FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST expr`, // missing parens
		`SELECT R.a AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x) AND`,    // dangling AND
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

// TestCompileExprEdges covers compile-time expression errors and folds.
func TestCompileExprEdges(t *testing.T) {
	r, tr := supplyChainData(t)
	// Constant folding of const*const.
	q, err := Parse(`SELECT (2 * 3 * R.uPrice + T.uShipCost) AS c
		FROM Suppliers R, Transporters T WHERE R.country = T.country PREFERRING LOWEST(c)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Compile(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Maps.Map([]float64{10, 0, 0}, []float64{4, 0}, make([]float64, 1))
	if out[0] != 64 {
		t.Fatalf("2*3*10+4 = %g, want 64", out[0])
	}
	// Scale on the left of the column.
	q2, err := Parse(`SELECT (R.uPrice * 0.5 - T.uShipCost) AS c
		FROM Suppliers R, Transporters T WHERE R.country = T.country PREFERRING LOWEST(c)`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := q2.Compile(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	out2 := p2.Maps.Map([]float64{10, 0, 0}, []float64{4, 0}, make([]float64, 1))
	if out2[0] != 1 {
		t.Fatalf("10*0.5-4 = %g, want 1", out2[0])
	}
	// MIN/MAX compile and evaluate.
	q3, err := Parse(`SELECT (MAX(R.uPrice, T.uShipCost, 7)) AS c
		FROM Suppliers R, Transporters T WHERE R.country = T.country PREFERRING LOWEST(c)`)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := q3.Compile(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	out3 := p3.Maps.Map([]float64{2, 0, 0}, []float64{4, 0}, make([]float64, 1))
	if out3[0] != 7 {
		t.Fatalf("max(2,4,7) = %g", out3[0])
	}
}

// TestCompileUnpreferredOutput rejects outputs not covered by PREFERRING.
func TestCompileUnpreferredOutput(t *testing.T) {
	r, tr := supplyChainData(t)
	q, err := Parse(`SELECT (R.uPrice) AS a, (T.uShipCost) AS b
		FROM Suppliers R, Transporters T WHERE R.country = T.country PREFERRING LOWEST(a)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compile(r, tr); err == nil {
		t.Fatal("unpreferred output must be rejected")
	}
}
