package stream

import (
	"fmt"
	"sync/atomic"
	"time"
)

// chunk is the unit of work handed from Ingest to a shard: encoded
// sample records (RecordBytes each, all belonging to the shard's
// stream range) in arrival order. Chunks are pooled; the recs buffer
// keeps its capacity across uses, so steady-state ingestion reuses the
// same backing arrays.
//
// A chunk with a non-nil ack and no records is a control message. With
// a nil stats it is a flush barrier: the shard flushes its detection
// journal and closes ack. With a stats request the shard fills it in
// from the stream it names and closes ack. Because the queue is FIFO
// and the shard goroutine is the only consumer, closing ack proves
// every chunk enqueued before the message has been fully applied: its
// detections are readable, and a stats reply is a consistent snapshot
// between two chunks.
type chunk struct {
	recs  []byte
	ack   chan struct{}
	stats *statsReq
}

// statsReq asks a shard for one stream's accounting; ok reports that
// the shard has seen the stream.
type statsReq struct {
	id  uint32
	out streamStats
	ok  bool
}

// shard owns a contiguous stream-ID range: the monitor instances of
// its streams, a bounded ingest queue, its slice of the metrics and a
// batched detection journal. All mutable monitoring state is touched
// only by the shard's goroutine (or, for an unstarted test service,
// by the test draining the queue itself), so the hot path takes no
// locks and no atomics at all — the sharding IS the synchronization.
// The shard publishes its totals to m once per chunk.
type shard struct {
	idx    int
	lo, hi uint32 // stream-ID range [lo, hi)
	ch     chan *chunk

	streams map[uint32]*streamState
	sink    *detSink
	m       shardMetrics
	svc     *Service
}

// run is the shard goroutine: drain chunks until the queue is closed,
// then flush and close the detection journal. Close(), which closes
// the queues, therefore guarantees every accepted sample has been
// applied and every detection is durable before it returns.
func (sh *shard) run() {
	defer sh.svc.wg.Done()
	for c := range sh.ch {
		sh.process(c)
	}
	if err := sh.sink.close(); err != nil {
		sh.svc.setErr(fmt.Errorf("stream: shard %d journal: %w", sh.idx, err))
	}
}

// process applies one chunk. It is the whole per-sample hot path:
// field reads straight off the wire bytes, a map lookup, the monitor
// tests, and a pooled-buffer detection line on violation — no
// allocation anywhere (gated by TestIngestPathZeroAllocs).
func (sh *shard) process(c *chunk) {
	if c.ack != nil {
		if r := c.stats; r != nil {
			if st := sh.streams[r.id]; st != nil {
				r.out, r.ok = st.stats(), true
			}
		} else if err := sh.sink.flush(); err != nil {
			sh.svc.setErr(fmt.Errorf("stream: shard %d journal: %w", sh.idx, err))
		}
		close(c.ack)
		return
	}
	n := len(c.recs) / RecordBytes
	var rejected uint64
	start := time.Now()
	for off := 0; off < len(c.recs); off += RecordBytes {
		rec := c.recs[off : off+RecordBytes]
		id := be32(rec)
		st := sh.streams[id]
		if st == nil {
			var err error
			if st, err = sh.addStream(id); err != nil {
				sh.svc.setErr(err)
				continue
			}
		}
		if st.apply(rec) {
			rejected++
		}
	}
	sh.m.observe(n, time.Since(start))
	atomic.AddUint64(&sh.m.rejected, rejected)
	atomic.StoreUint64(&sh.m.streams, uint64(len(sh.streams)))
	atomic.StoreUint64(&sh.m.detections, sh.sink.lines)
	sh.svc.putChunk(c)
}

// addStream instantiates the monitors for a stream on its first
// sample. This is the one allocating step of a stream's lifetime;
// reconnects reuse the instances via FlagReset (the Monitor reuse
// contract), so a stream that flaps does not churn monitors.
func (sh *shard) addStream(id uint32) (*streamState, error) {
	st, err := newStreamState(id, sh.sink)
	if err != nil {
		return nil, err
	}
	sh.streams[id] = st
	return st, nil
}

// snapshot reads the shard's metrics (any goroutine).
func (sh *shard) snapshot() ShardSnapshot {
	return ShardSnapshot{
		Index:      sh.idx,
		StreamLo:   sh.lo,
		StreamHi:   sh.hi,
		Streams:    atomic.LoadUint64(&sh.m.streams),
		Samples:    atomic.LoadUint64(&sh.m.samples),
		Batches:    atomic.LoadUint64(&sh.m.batches),
		Detections: atomic.LoadUint64(&sh.m.detections),
		Rejected:   atomic.LoadUint64(&sh.m.rejected),
		QueueDepth: len(sh.ch),
		QueueCap:   cap(sh.ch),
	}
}
