package feed

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestChangeJSONRoundTrip(t *testing.T) {
	in := Change{Seq: 9, Relation: "hotels", Op: OpInsert, ID: 41, Vals: []float64{0.25, 0.5}, JoinKey: 3}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Change
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"op":"upsert","id":1}`), &out); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestParseLineCSV(t *testing.T) {
	c, err := ParseLine("insert, hotels, 7, 4, 0.2, 0.3")
	if err != nil {
		t.Fatal(err)
	}
	want := Change{Relation: "hotels", Op: OpInsert, ID: 7, JoinKey: 4, Vals: []float64{0.2, 0.3}}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("got %+v want %+v", c, want)
	}
	c, err = ParseLine("delete,flights,12")
	if err != nil {
		t.Fatal(err)
	}
	if c.Op != OpDelete || c.ID != 12 || c.Relation != "flights" {
		t.Fatalf("got %+v", c)
	}
	for _, bad := range []string{"", "insert", "insert,r", "insert,r,x,1,2", "delete,r,1,extra", "insert,r,1,k", "insert,r,1,1,nanx", "delete,\x92,0"} {
		if _, err := ParseLine(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// FuzzParseLine feeds arbitrary lines to ParseLine, the decoder of every
// line POST /v1/relations/{name}/changes and the -follow tailer read: it must
// never panic, and a change it accepts with finite values must come back
// equal through MarshalJSON → ParseLine.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		"insert, hotels, 7, 4, 0.2, 0.3",
		"delete,flights,12",
		"", "insert", "insert,r", "insert,r,x,1,2", "delete,r,1,extra", "insert,r,1,k", "insert,r,1,1,nanx",
		`{"seq":9,"relation":"hotels","op":"insert","id":41,"vals":[0.25,0.5],"joinKey":3}`,
		`{"op":"upsert","id":1}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseLine(line)
		if err != nil {
			return
		}
		for _, v := range c.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		b, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("ParseLine(%q) = %+v, which does not marshal: %v", line, c, err)
		}
		back, err := ParseLine(string(b))
		if err != nil {
			t.Fatalf("ParseLine(%q) = %+v, marshaled as %s, which does not parse: %v", line, c, b, err)
		}
		if len(c.Vals) == 0 {
			c.Vals = nil // the wire omits empty values
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("ParseLine(%q) = %+v, round trip through %s gives %+v", line, c, b, back)
		}
	})
}

func TestTailSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "changes.ndjson")
	s := NewTailSource(path, time.Millisecond)
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// File appears after the tail starts; partial lines are not consumed.
	go func() {
		time.Sleep(5 * time.Millisecond)
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		f.WriteString("# change log\n")
		f.WriteString(`{"op":"insert","relation":"r","id":1,"vals":[0.5],"joinKey":2}` + "\n")
		f.WriteString("delete,r,9\n")
		f.WriteString(`{"op":"insert","relation":"r","id`) // torn write, no newline
		f.Sync()
		time.Sleep(10 * time.Millisecond)
		f.WriteString(`":2,"vals":[0.25],"joinKey":2}` + "\n")
	}()

	c, err := s.Next(ctx)
	if err != nil || c.ID != 1 || c.Op != OpInsert || c.Relation != "r" {
		t.Fatalf("first change: %+v %v", c, err)
	}
	c, err = s.Next(ctx)
	if err != nil || c.ID != 9 || c.Op != OpDelete {
		t.Fatalf("second change: %+v %v", c, err)
	}
	c, err = s.Next(ctx)
	if err != nil || c.ID != 2 || len(c.Vals) != 1 || c.Vals[0] != 0.25 {
		t.Fatalf("torn-write change: %+v %v", c, err)
	}

	// Malformed line surfaces an error and is skipped.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("bogus line\ninsert,r,5,1,0.75\n")
	f.Close()
	if _, err := s.Next(ctx); err == nil {
		t.Fatal("malformed line did not error")
	}
	c, err = s.Next(ctx)
	if err != nil || c.ID != 5 {
		t.Fatalf("change after malformed line: %+v %v", c, err)
	}

	// A log renamed away and recreated: the tail delivers what the writer
	// still appended to the old file, then the new file from its top.
	old, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	old.WriteString("insert,r,6,0,0.5\n")
	old.Close()
	if err := os.WriteFile(path, []byte("insert,r,7,0,0.5\ndelete,r,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{6, 7, 6} {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		c, err = s.Next(rctx)
		cancel()
		if err != nil || c.ID != want {
			t.Fatalf("after the rename: %+v %v, want id %d", c, err, want)
		}
	}

	// Cancellation unblocks an idle tail.
	cctx, cancel2 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Next(cctx)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel2()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tail did not unblock on cancel")
	}
}
