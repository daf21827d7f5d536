package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// writerQueueLines is the channel buffer between senders and the
// drainer: deep enough that a parallel campaign's workers never stall
// on a disk hiccup during a progress burst.
const writerQueueLines = 1024

// The coalesced-write cap and the line-aligned flush discipline live
// in LineBatcher (LineBatchBytes), shared with the stream service's
// violation sinks: batches always end on a line boundary, so a kill
// mid-batch truncates at most the final partial line of the final
// batch, which Load already tolerates.

// Writer appends journal lines through a single drainer goroutine, so
// campaign workers never block on disk latency. The drainer coalesces
// every line queued at the moment it wakes into one write call (capped
// at writerBatchBytes) — at parallel-campaign throughput this turns
// thousands of per-line write syscalls into a handful of batched ones.
// Writes go straight to the file descriptor — no userspace buffer that
// could outlive a crash — so everything before the final (possibly
// truncated) batch survives a killed process.
//
// Writer methods are safe for concurrent use; Close is idempotent and
// safe to defer alongside an explicit call.
type Writer struct {
	f    *os.File
	ch   chan []byte
	done chan struct{}

	mu     sync.Mutex // guards closed and the send/close ordering
	closed bool

	errMu sync.Mutex // guards err; separate so the drainer can record a
	// write error while a sender holds mu blocked on a full channel
	err error
}

// Create opens a fresh journal at path, truncating any previous file.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return newWriter(f), nil
}

// Open opens an existing journal at path for appending — the resume
// path: replayed runs are already on file, and newly executed runs
// extend it, so a twice-interrupted campaign still resumes cleanly.
//
// A truncated trailing line — the signature of a killed run, which Load
// drops on read — is cut off the file before appending. Without the cut
// the first appended line would fuse with the partial one into a
// malformed INTERIOR line, and while the immediate resume (which loaded
// the journal before appending) would succeed, the file itself would be
// unloadable ever after: a second resume would fail. The cut discards
// only bytes Load already ignores.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := trimPartialLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return newWriter(f), nil
}

// trimPartialLine truncates f after its final newline and seeks to the
// new end, scanning backwards in chunks so a large journal is not read
// whole.
func trimPartialLine(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	end := int64(0) // file offset just past the last '\n'
	buf := make([]byte, 64*1024)
	for pos := size; pos > 0 && end == 0; {
		n := int64(len(buf))
		if n > pos {
			n = pos
		}
		pos -= n
		if _, err := f.ReadAt(buf[:n], pos); err != nil {
			return err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				end = pos + i + 1
				break
			}
		}
	}
	if end < size {
		if err := f.Truncate(end); err != nil {
			return err
		}
	}
	_, err = f.Seek(end, 0)
	return err
}

func newWriter(f *os.File) *Writer {
	w := &Writer{
		f:    f,
		ch:   make(chan []byte, writerQueueLines),
		done: make(chan struct{}),
	}
	go w.drain()
	return w
}

// drain is the writer goroutine: it blocks for the next line, then
// opportunistically coalesces everything already queued behind it
// through the shared LineBatcher, which turns the queued lines into
// line-aligned batched writes.
func (w *Writer) drain() {
	defer close(w.done)
	b := NewLineBatcher(w.f)
	flush := func() {
		if err := b.Flush(); err != nil {
			w.setErr(fmt.Errorf("journal: writing: %w", err))
		}
	}
	for line := range w.ch {
		b.Add(line)
	coalesce:
		for {
			select {
			case more, ok := <-w.ch:
				if !ok {
					flush()
					return
				}
				b.Add(more)
			default:
				break coalesce
			}
		}
		flush()
	}
	flush()
}

func (w *Writer) setErr(err error) {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first write error, if any.
func (w *Writer) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// send marshals v as one JSONL line and queues it for the drainer. The
// channel send happens under mu — the same lock Close takes before
// closing the channel — which is what makes concurrent senders safe
// against a racing Close (no send on a closed channel, ever). Holding
// mu across a full-channel stall is fine: the drainer never takes mu,
// so it keeps draining and the stall resolves.
func (w *Writer) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshaling: %w", err)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("journal: write after close")
	}
	w.ch <- append(b, '\n')
	w.mu.Unlock()
	return w.Err()
}

// Header appends a campaign header line.
func (w *Writer) Header(h Header) error {
	h.Kind = KindHeader
	return w.send(h)
}

// Run appends one completed-run record.
func (w *Writer) Run(r Record) error {
	r.Kind = KindRun
	return w.send(r)
}

// Probe appends one optimizer probe record.
func (w *Writer) Probe(p Probe) error {
	p.Kind = KindProbe
	return w.send(p)
}

// Cost appends one optimizer cost-calibration line.
func (w *Writer) Cost(c Cost) error {
	c.Kind = KindCost
	return w.send(c)
}

// Close drains pending lines, closes the file and returns the first
// write error. It is idempotent and safe to call concurrently with
// senders: the channel is closed under the same lock send holds.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.Err()
	}
	w.closed = true
	close(w.ch)
	w.mu.Unlock()
	<-w.done
	if err := w.f.Close(); err != nil {
		w.setErr(fmt.Errorf("journal: closing: %w", err))
	}
	return w.Err()
}
