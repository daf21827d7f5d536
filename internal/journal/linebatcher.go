package journal

import "io"

// LineBatchBytes caps one coalesced LineBatcher write. Batches always
// end on a line boundary — lines are buffered whole — so a kill
// mid-write truncates at most the final partial line of the final
// write, which every journal reader in this repository (Load here,
// the stream service's detection reader) already tolerates.
const LineBatchBytes = 64 * 1024

// LineBatcher coalesces whole lines into line-aligned writes of about
// LineBatchBytes each. It is the shared flush discipline of the
// campaign journal's Writer drainer and the stream service's per-shard
// violation sinks: callers append lines one at a time, the batcher
// turns thousands of per-line write syscalls into a handful of batched
// ones, and no write ever splits a line — so a crash can only cost the
// tail of the last write, never corrupt an interior line.
//
// The internal buffer is retained and reused across flushes, so a
// steady-state caller allocates nothing per line. LineBatcher is not
// safe for concurrent use; each caller owns one (the journal Writer's
// single drainer goroutine, one sink per stream shard).
type LineBatcher struct {
	w   io.Writer
	buf []byte
	err error
}

// NewLineBatcher builds a batcher writing to w.
func NewLineBatcher(w io.Writer) *LineBatcher {
	return &LineBatcher{w: w, buf: make([]byte, 0, LineBatchBytes)}
}

// Add buffers one complete line (the caller includes the trailing
// newline). When adding the line would push the pending batch past
// LineBatchBytes, the batch is flushed first, so writes stay
// line-aligned; a single line longer than the cap is written alone.
// The line's bytes are copied — the caller may reuse its slice.
func (b *LineBatcher) Add(line []byte) {
	if len(b.buf) > 0 && len(b.buf)+len(line) > LineBatchBytes {
		b.flush()
	}
	b.buf = append(b.buf, line...)
	if len(b.buf) >= LineBatchBytes {
		b.flush()
	}
}

// Flush writes any pending lines and returns the first write error.
func (b *LineBatcher) Flush() error {
	b.flush()
	return b.err
}

func (b *LineBatcher) flush() {
	if len(b.buf) == 0 {
		return
	}
	if _, err := b.w.Write(b.buf); err != nil && b.err == nil {
		b.err = err
	}
	b.buf = b.buf[:0]
}
