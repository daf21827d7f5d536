package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"easig/internal/core"
	"easig/internal/journal"
)

// AppendDetection renders one violation as the canonical detection
// line and appends it to dst: tab-separated stream ID, tick, signal
// name, failed test, offending value, previous value ('-' when the
// monitor was unprimed) and mode, newline-terminated. The rendering is
// the equivalence currency of SIGMOND.md — sigmond's journal and the
// inline reference observer emit the identical bytes for the identical
// violation — so its format is frozen alongside the wire format.
func AppendDetection(dst []byte, stream uint32, v core.Violation) []byte {
	dst = strconv.AppendUint(dst, uint64(stream), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, v.Time, 10)
	dst = append(dst, '\t')
	dst = append(dst, v.Signal...)
	dst = append(dst, '\t')
	dst = append(dst, v.Test.String()...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, v.Value, 10)
	dst = append(dst, '\t')
	if v.HasPrev {
		dst = strconv.AppendInt(dst, v.Prev, 10)
	} else {
		dst = append(dst, '-')
	}
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(v.Mode), 10)
	return append(dst, '\n')
}

// memBuf is an in-memory detection journal (JournalDir ""): a locked
// buffer whose snapshots are consistent with concurrent appends.
type memBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memBuf) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memBuf) snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

// detSink is one shard's violation journal: detection lines are staged
// in a journal.LineBatcher, so the shard goroutine issues one
// line-aligned write per ~64 KiB of detections instead of one write
// per violation, and a reader that catches the journal mid-write sees
// only whole lines plus at most one partial tail. Like the batcher it
// wraps, a detSink has a single owner; only snapshot may be called
// from other goroutines.
type detSink struct {
	b     *journal.LineBatcher
	line  []byte
	lines uint64 // detections added so far (owner only)
	file  *os.File
	path  string
	mem   *memBuf
}

// newDetSink opens shard idx's journal under dir, or an in-memory
// journal when dir is empty (tests, and services queried only over
// HTTP).
func newDetSink(dir string, idx int) (*detSink, error) {
	s := &detSink{}
	if dir == "" {
		s.mem = &memBuf{}
		s.b = journal.NewLineBatcher(s.mem)
		return s, nil
	}
	path := filepath.Join(dir, fmt.Sprintf("detections-%d.log", idx))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening detection journal: %w", err)
	}
	s.file, s.path = f, path
	s.b = journal.NewLineBatcher(f)
	return s, nil
}

// add stages one detection line. The line buffer is reused, so the
// violating hot path allocates nothing either.
func (s *detSink) add(stream uint32, v core.Violation) {
	s.line = AppendDetection(s.line[:0], stream, v)
	s.b.Add(s.line)
	s.lines++
}

// flush forces staged lines out (owner goroutine only).
func (s *detSink) flush() error { return s.b.Flush() }

// snapshot returns the journal's written bytes. Safe to call from any
// goroutine; lines staged in the batcher but not yet flushed are not
// included, which is why readers flush first (Service.Flush).
func (s *detSink) snapshot() ([]byte, error) {
	if s.mem != nil {
		return s.mem.snapshot(), nil
	}
	return os.ReadFile(s.path)
}

// close flushes and releases the journal (owner goroutine only).
func (s *detSink) close() error {
	err := s.b.Flush()
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CompleteLines trims b to its newline-terminated prefix: a reader
// that raced a write (or read a journal cut mid-write by a crash)
// drops the partial tail and keeps every whole detection line.
func CompleteLines(b []byte) []byte {
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return nil
}

// CanonicalizeDetections reorders detection lines by ascending stream
// ID while preserving each stream's own line order. Per-stream order
// is the only order sigmond guarantees — a 4-shard service interleaves
// streams differently than a 1-shard one or the inline reference — so
// equivalence is checked on the canonical form: two observers agree
// iff their canonicalized journals are byte-identical. A trailing
// partial line is dropped (see CompleteLines).
func CanonicalizeDetections(b []byte) []byte {
	b = CompleteLines(b)
	if len(b) == 0 {
		return nil
	}
	var lines [][]byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		lines = append(lines, b[:i+1])
		b = b[i+1:]
	}
	key := func(line []byte) uint64 {
		end := bytes.IndexByte(line, '\t')
		if end < 0 {
			end = len(line) - 1
		}
		n, _ := strconv.ParseUint(string(line[:end]), 10, 64)
		return n
	}
	keys := make([]uint64, len(lines))
	for i, l := range lines {
		keys[i] = key(l)
	}
	// Sort line indices, not the lines, so keys stay aligned.
	idx := make([]int, len(lines))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var n int
	for _, l := range lines {
		n += len(l)
	}
	out := make([]byte, 0, n)
	for _, i := range idx {
		out = append(out, lines[i]...)
	}
	return out
}
