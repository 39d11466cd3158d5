package query

import (
	"strings"
	"testing"

	"progxe/internal/relation"
)

// The parser fronts untrusted network input since the query service
// (internal/server) exposes it over HTTP. These tests pin down the error
// paths that matter there: every malformed query must produce a descriptive
// error — never a panic, never silent acceptance.

const validTail = "FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)"

// TestParsePreferringErrors walks the malformed PREFERRING shapes.
func TestParsePreferringErrors(t *testing.T) {
	head := "SELECT (R.a) AS x FROM X R, Y T WHERE R.k = T.k "
	bad := map[string]string{
		"keyword only":        head + "PREFERRING",
		"missing parens":      head + "PREFERRING LOWEST",
		"empty parens":        head + "PREFERRING LOWEST()",
		"unterminated parens": head + "PREFERRING LOWEST(x",
		"number argument":     head + "PREFERRING LOWEST(1)",
		"expression argument": head + "PREFERRING LOWEST(R.a)",
		"trailing AND":        head + "PREFERRING LOWEST(x) AND",
		"OR connective":       head + "PREFERRING LOWEST(x) OR HIGHEST(x)",
		"bare name":           head + "PREFERRING x",
		"case-typo order":     head + "PREFERRING LOW(x)",
		"missing clause":      "SELECT (R.a) AS x FROM X R, Y T WHERE R.k = T.k",
	}
	for name, s := range bad {
		t.Run(name, func(t *testing.T) {
			if q, err := Parse(s); err == nil {
				t.Fatalf("accepted %q as %+v", s, q)
			}
		})
	}
}

// TestParseErrorsCarryPosition checks that syntax errors point at the
// offending token, which is what a service returns to a remote caller.
func TestParseErrorsCarryPosition(t *testing.T) {
	_, err := Parse("SELECT (R.a) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING WRONG(x)")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "position") || !strings.Contains(msg, "WRONG") {
		t.Fatalf("error %q does not locate the offending token", msg)
	}
}

// TestParseNoPanicOnGarbage feeds adversarial input shapes; the parser must
// return an error (or a query) without panicking on any of them.
func TestParseNoPanicOnGarbage(t *testing.T) {
	inputs := []string{
		"\x00\x01\x02",
		"SELECT \x00 AS x " + validTail,
		"ПРЕФЕРРИНГ СЕЛЕКТ",
		strings.Repeat("SELECT ", 2000),
		"SELECT (" + strings.Repeat("(", 5000) + "R.a" + strings.Repeat(")", 5000) + ") AS x " + validTail,
		"SELECT (" + strings.Repeat("R.a + ", 5000) + "R.a) AS x " + validTail,
		"SELECT (MIN(" + strings.Repeat("R.a,", 1000) + "R.a)) AS x " + validTail,
		"SELECT (" + strings.Repeat("- ", 5000) + "R.a) AS x " + validTail,
		"SELECT (R.a) AS " + strings.Repeat("x", 1<<16) + " " + validTail,
		"SELECT (R.a) AS x FROM X R, Y T WHERE R.k = T.k AND " +
			strings.Repeat("R.a >= 1 AND ", 2000) + "R.b <= 2 PREFERRING LOWEST(x)",
		"SELECT (1e999999 * R.a) AS x " + validTail,
		"SELECT R.",
		"SELECT (R.a) AS x FROM X R, Y T WHERE R.k",
	}
	for _, s := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%.60q...) panicked: %v", s, r)
				}
			}()
			_, _ = Parse(s) // error or not — just must terminate cleanly
		}()
	}
}

// TestCompileUnknownBindings covers the binding errors a networked caller
// hits when the query references relations or attributes that do not match
// the registered schemas.
func TestCompileUnknownBindings(t *testing.T) {
	left := relation.New(relation.MustSchema("Good", []string{"a"}, "k"))
	right := relation.New(relation.MustSchema("Also", []string{"b"}, "k"))

	// Cross-matched table names: query names the two relations in a way
	// that can match neither by name nor by position.
	q, err := Parse("SELECT (R.a + T.b) AS x FROM Nope R, Good T WHERE R.k = T.k PREFERRING LOWEST(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compile(left, right); err == nil {
		t.Fatal("cross-matched FROM names must not bind")
	}

	// Join condition on a non-join attribute of a named relation.
	q, err = Parse("SELECT (R.a + T.b) AS x FROM Good R, Also T WHERE R.a = T.k PREFERRING LOWEST(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compile(left, right); err == nil {
		t.Fatal("join on a non-join attribute must not bind")
	}

	// PREFERRING the same output twice survives parsing but must fail to
	// compile (the skyline dimensionality would be wrong otherwise).
	q, err = Parse("SELECT (R.a + T.b) AS x, (R.a - T.b) AS y FROM Good R, Also T WHERE R.k = T.k PREFERRING LOWEST(x) AND LOWEST(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compile(left, right); err == nil {
		t.Fatal("duplicate PREFERRING reference must not compile")
	}
}

// FuzzParse asserts, over generated inputs, that Parse never panics and
// that an accepted query's String() re-parses and renders to the same text;
// `go test` runs the seed corpus, `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	f.Add("SELECT (R.a + T.b) AS x FROM X R, Y T WHERE R.k = T.k PREFERRING LOWEST(x)")
	f.Add("SELECT (MIN(R.a, 2 * T.b)) AS m " + validTail)
	f.Add("PREFERRING PREFERRING PREFERRING")
	f.Add("SELECT (((")
	f.Add("")
	f.Add("SELECT (-R.a - -2.5e-3) AS x, R.id FROM X R, Y T WHERE R.k = T.k AND T.v <= 1e21 PREFERRING HIGHEST(x)")
	f.Add("SELECT (ü.preço) AS é FROM X ü, Y 名 WHERE ü.k = 名.k PREFERRING LOWEST(é)")
	f.Add("SELECT (R.a) AS ê, (T.b) AS x " + validTail)
	f.Add("SELECT (R.a) AS x\xc3 " + validTail)
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("nil query without error")
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q fails: %v", s, text, err)
		}
		if again := q2.String(); again != text {
			t.Fatalf("rendering of %q does not re-render to itself:\n%q\n%q", s, text, again)
		}
	})
}
