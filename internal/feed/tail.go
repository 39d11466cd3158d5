package feed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// DefaultPollInterval is how often TailSource re-checks the file for
// appended lines when no unread data is buffered.
const DefaultPollInterval = 50 * time.Millisecond

// TailSource tails a change-log file, parsing appended lines as changes. Two
// line formats are auto-detected per line:
//
//   - NDJSON: {"op":"insert","relation":"hotels","id":7,"vals":[0.2,0.3],"joinKey":4}
//   - CSV:    insert,hotels,7,4,0.2,0.3   (op,relation,id,joinKey,vals...)
//
// Blank lines and #-comments are skipped. Only complete (newline-terminated)
// lines are consumed, so a writer appending a line in multiple writes is
// never seen half-way. A file that shrinks (truncation/rotation) restarts
// the tail from the top. TailSource is single-consumer.
type TailSource struct {
	path string
	poll time.Duration

	f      *os.File
	offset int64
	buf    []byte
	seq    uint64 // connector-local line counter, diagnostic only
}

// NewTailSource tails the file at path, starting at the beginning. A
// non-positive poll interval selects DefaultPollInterval. The file does not
// need to exist yet; Next waits for it to appear.
func NewTailSource(path string, poll time.Duration) *TailSource {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return &TailSource{path: path, poll: poll}
}

// Close releases the underlying file handle.
func (s *TailSource) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Next returns the next change appended to the file, blocking (polling)
// until one is available or ctx is done. Malformed lines return an error
// carrying the line number; the tail advances past them, so a caller that
// logs and retries skips the bad line.
func (s *TailSource) Next(ctx context.Context) (Change, error) {
	for {
		line, ok, err := s.nextLine(ctx)
		if err != nil {
			return Change{}, err
		}
		if !ok {
			select {
			case <-ctx.Done():
				return Change{}, ctx.Err()
			case <-time.After(s.poll):
				continue
			}
		}
		s.seq++
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		c, err := ParseLine(string(line))
		if err != nil {
			return Change{}, fmt.Errorf("feed: %s line %d: %w", s.path, s.seq, err)
		}
		return c, nil
	}
}

// nextLine returns the next complete line from the buffered tail, reading
// newly appended bytes from the file when the buffer holds none.
func (s *TailSource) nextLine(ctx context.Context) ([]byte, bool, error) {
	if i := bytes.IndexByte(s.buf, '\n'); i >= 0 {
		line := s.buf[:i]
		s.buf = s.buf[i+1:]
		return line, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if s.f == nil {
		f, err := os.Open(s.path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, false, nil // not created yet: poll
			}
			return nil, false, err
		}
		s.f = f
		s.offset = 0
	}
	st, err := s.f.Stat()
	if err != nil {
		return nil, false, err
	}
	if st.Size() < s.offset { // truncated or rotated in place: restart
		s.offset = 0
		s.buf = nil
	}
	if st.Size() == s.offset {
		return nil, false, nil
	}
	chunk := make([]byte, st.Size()-s.offset)
	n, err := s.f.ReadAt(chunk, s.offset)
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	s.offset += int64(n)
	s.buf = append(s.buf, chunk[:n]...)
	if i := bytes.IndexByte(s.buf, '\n'); i >= 0 {
		line := s.buf[:i]
		s.buf = s.buf[i+1:]
		return line, true, nil
	}
	return nil, false, nil
}

// ParseLine parses one change-log line in either wire format: NDJSON when it
// starts with '{', CSV (op,relation,id,joinKey,vals...) otherwise. A line
// must be UTF-8 text, so that every change it yields renders back to it.
func ParseLine(line string) (Change, error) {
	if !utf8.ValidString(line) {
		return Change{}, fmt.Errorf("change line is not valid UTF-8: %q", line)
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "{") {
		var c Change
		if err := c.UnmarshalJSON([]byte(line)); err != nil {
			return Change{}, err
		}
		return c, nil
	}
	fields := strings.Split(line, ",")
	if len(fields) < 3 {
		return Change{}, fmt.Errorf("csv change needs at least op,relation,id: %q", line)
	}
	op, err := ParseOp(strings.TrimSpace(fields[0]))
	if err != nil {
		return Change{}, err
	}
	c := Change{Relation: strings.TrimSpace(fields[1]), Op: op}
	c.ID, err = strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
	if err != nil {
		return Change{}, fmt.Errorf("bad id %q: %w", fields[2], err)
	}
	if op == OpDelete {
		if len(fields) > 3 {
			return Change{}, fmt.Errorf("delete takes op,relation,id only: %q", line)
		}
		return c, nil
	}
	if len(fields) < 4 {
		return Change{}, fmt.Errorf("insert needs op,relation,id,joinKey,vals...: %q", line)
	}
	c.JoinKey, err = strconv.ParseInt(strings.TrimSpace(fields[3]), 10, 64)
	if err != nil {
		return Change{}, fmt.Errorf("bad joinKey %q: %w", fields[3], err)
	}
	for _, f := range fields[4:] {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Change{}, fmt.Errorf("bad value %q: %w", f, err)
		}
		c.Vals = append(c.Vals, v)
	}
	return c, nil
}
