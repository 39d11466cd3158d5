package relation

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []string
		join  string
	}{
		{"", []string{"a"}, "j"},       // no name
		{"R", nil, "j"},                // no attributes
		{"R", []string{""}, "j"},       // empty attribute
		{"R", []string{"a", "a"}, "j"}, // duplicate attribute
		{"R", []string{"a"}, ""},       // no join attribute
		{"R", []string{"a", "j"}, "j"}, // join collides
	}
	for _, c := range cases {
		if _, err := NewSchema(c.name, c.attrs, c.join); err == nil {
			t.Errorf("NewSchema(%q, %v, %q): expected error", c.name, c.attrs, c.join)
		}
	}
	s := MustSchema("R", []string{"a", "b"}, "j")
	if s.Arity() != 2 || s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Fatalf("schema accessors wrong: %s", s)
	}
	if got := s.String(); got != "R(a, b, j*)" {
		t.Fatalf("String = %q", got)
	}
}

func TestRelationAppend(t *testing.T) {
	r := New(MustSchema("R", []string{"a"}, "j"))
	if err := r.Append(Tuple{ID: 1, Vals: []float64{1, 2}}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	r.MustAppend(Tuple{ID: 1, Vals: []float64{5}, JoinKey: 9})
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend must panic on bad arity")
		}
	}()
	r.MustAppend(Tuple{ID: 2, Vals: nil})
}

func TestSelectAndPredicates(t *testing.T) {
	s := MustSchema("R", []string{"price", "cap"}, "part")
	r := New(s)
	r.MustAppend(Tuple{ID: 1, Vals: []float64{10, 50}, JoinKey: 1})
	r.MustAppend(Tuple{ID: 2, Vals: []float64{20, 150}, JoinKey: 1})
	r.MustAppend(Tuple{ID: 3, Vals: []float64{30, 200}, JoinKey: 2})

	// Q1-style selection: cap >= 100 AND part IN {1}.
	sel := r.Select(And{
		AttrCmp{Attr: "cap", Op: GE, Const: 100},
		JoinKeyIn{Keys: map[int64]bool{1: true}},
	})
	if sel.Len() != 1 || sel.Tuples[0].ID != 2 {
		t.Fatalf("selection kept %v", sel.Tuples)
	}

	ops := []struct {
		op   CmpOp
		v    float64
		want bool
	}{
		{EQ, 10, true}, {NE, 10, false}, {LT, 11, true},
		{LE, 10, true}, {GT, 9, true}, {GE, 11, false},
	}
	for _, c := range ops {
		p := AttrCmp{Attr: "price", Op: c.op, Const: c.v}
		if got := p.Eval(s, r.Tuples[0]); got != c.want {
			t.Errorf("%s: got %v", p, got)
		}
	}
	if (AttrCmp{Attr: "missing", Op: EQ, Const: 0}).Eval(s, r.Tuples[0]) {
		t.Fatal("unknown attribute must evaluate false")
	}
	if !(True{}).Eval(s, r.Tuples[0]) || (And{}).Eval(s, r.Tuples[0]) != true {
		t.Fatal("True and empty And must hold")
	}
	if (And{}).String() != "TRUE" || (True{}).String() != "TRUE" {
		t.Fatal("trivial predicate strings wrong")
	}
	if !strings.Contains((And{AttrCmp{"a", LT, 1}, True{}}).String(), "AND") {
		t.Fatal("And must join with AND")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{ID: 1, Vals: []float64{1, 2}, JoinKey: 3}
	b := a.Clone()
	b.Vals[0] = 99
	if a.Vals[0] != 1 {
		t.Fatal("clone must not share storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(MustSchema("R", []string{"a", "b"}, "j"))
	r.MustAppend(Tuple{ID: 1, Vals: []float64{1.5, -2}, JoinKey: 7})
	r.MustAppend(Tuple{ID: 2, Vals: []float64{0, 1e9}, JoinKey: -1})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schema, r.Schema) {
		t.Fatalf("schema roundtrip: %v vs %v", got.Schema, r.Schema)
	}
	if !reflect.DeepEqual(got.Tuples, r.Tuples) {
		t.Fatalf("tuples roundtrip: %v vs %v", got.Tuples, r.Tuples)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",                // no header
		"id,j\n",          // too few columns
		"x,a,j\n",         // first column not id
		"id,a,j\n1,2\n",   // wrong field count
		"id,a,j\nx,2,3\n", // bad id
		"id,a,j\n1,x,3\n", // bad value
		"id,a,j\n1,2,x\n", // bad join key
	}
	for _, c := range cases {
		if _, err := ReadCSV("R", strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q): expected error", c)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE, CmpOp(9)} {
		if op.String() == "" {
			t.Fatalf("CmpOp(%d) renders empty", op)
		}
	}
}
