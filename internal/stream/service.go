package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects what Ingest does when a shard's queue is full.
type Policy int

const (
	// PolicyBlock makes Ingest wait for queue space: no sample is ever
	// dropped, and backpressure propagates to the client as request
	// latency. The default, and the right choice when the client is a
	// replayer that must observe every detection (cmd/sigmon).
	PolicyBlock Policy = iota
	// PolicyShed makes Ingest drop a full shard's portion of the
	// request instead of waiting. The drop granularity is the whole
	// per-shard chunk of that request — never a partial chunk, so a
	// stream's accepted samples are always a prefix-free subsequence of
	// whole request-portions and the dropped counts are exact. Use for
	// live telemetry where stale samples are worth less than fresh
	// ones.
	PolicyShed
)

// ErrClosed reports an operation on a closed service.
var ErrClosed = errors.New("stream: service closed")

// Config parameterizes a Service.
type Config struct {
	// Shards is the number of monitor-pool shards (default 1). Stream
	// IDs are partitioned into Shards contiguous ranges.
	Shards int
	// MaxStreams bounds the stream-ID space: records with
	// Stream >= MaxStreams are rejected at validation (default 1024).
	MaxStreams int
	// QueueBatches is each shard's ingest-queue capacity in chunks
	// (default 64). Together with the wire format's 64 Ki-record batch
	// bound this caps per-shard buffered memory.
	QueueBatches int
	// Policy is the backpressure policy (default PolicyBlock).
	Policy Policy
	// JournalDir, when non-empty, is the directory for the per-shard
	// detection journals (detections-<i>.log). Empty keeps detections
	// in memory.
	JournalDir string
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.QueueBatches <= 0 {
		c.QueueBatches = 64
	}
}

// Service is the sigmond monitoring service: a sharded pool of
// per-stream Table 4 monitor suites fed by binary sample batches. See
// the package comment for the architecture and SIGMOND.md for the
// operator contract. Ingest, Flush, Metrics and StreamStats may be
// called from any number of goroutines; Close may be called once from
// any of them.
type Service struct {
	cfg    Config
	per    uint32 // stream IDs per shard
	shards []*shard

	chunks  sync.Pool // *chunk
	staging sync.Pool // *[]*chunk, len == len(shards)

	mu     sync.RWMutex // guards closed vs. queue sends/closes
	closed bool
	wg     sync.WaitGroup

	start time.Time

	droppedBatches uint64
	droppedSamples uint64

	errMu sync.Mutex
	err   error
}

// New starts a service: one goroutine per shard, queues open.
func New(cfg Config) (*Service, error) {
	return newService(cfg, true)
}

// NewUnstarted builds a service whose shard goroutines are not
// running: Ingest enqueues as usual and the caller applies the queued
// chunks itself with DrainQueued. This is the measurement harness for
// the zero-allocation gates (testing.AllocsPerRun) and the repository
// benchmark's per-layer stream rows (benchmark/README.md), where the
// whole ingest->monitor path must run on one
// deterministic goroutine; it is not a serving mode.
func NewUnstarted(cfg Config) (*Service, error) {
	return newService(cfg, false)
}

// newService optionally skips starting the shard goroutines.
func newService(cfg Config, startShards bool) (*Service, error) {
	cfg.fill()
	s := &Service{cfg: cfg, start: time.Now()}
	s.per = uint32((cfg.MaxStreams + cfg.Shards - 1) / cfg.Shards)
	s.chunks.New = func() any { return new(chunk) }
	nshards := cfg.Shards
	s.staging.New = func() any {
		st := make([]*chunk, nshards)
		return &st
	}
	for i := 0; i < cfg.Shards; i++ {
		lo := uint32(i) * s.per
		hi := lo + s.per
		if m := uint32(cfg.MaxStreams); hi > m {
			hi = m
		}
		sink, err := newDetSink(cfg.JournalDir, i)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			idx:     i,
			lo:      lo,
			hi:      hi,
			ch:      make(chan *chunk, cfg.QueueBatches),
			streams: make(map[uint32]*streamState),
			sink:    sink,
			svc:     s,
		}
		s.shards = append(s.shards, sh)
	}
	if startShards {
		for _, sh := range s.shards {
			s.wg.Add(1)
			go sh.run()
		}
	}
	return s, nil
}

func (s *Service) shardFor(id uint32) int {
	si := int(id / s.per)
	if si >= len(s.shards) {
		si = len(s.shards) - 1
	}
	return si
}

func (s *Service) getChunk() *chunk {
	return s.chunks.Get().(*chunk)
}

func (s *Service) putChunk(c *chunk) {
	c.recs = c.recs[:0]
	c.ack = nil
	s.chunks.Put(c)
}

func (s *Service) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *Service) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Ingest validates and dispatches one request payload (one or more
// wire batches back to back). Validation is all-or-nothing: a payload
// with any framing error or out-of-range stream ID is rejected whole,
// with no sample applied — a client killed mid-request can produce a
// short read, never a half-applied one. On success the records are
// partitioned into per-shard chunks in arrival order and enqueued;
// accepted is the number of samples queued, dropped the number shed by
// PolicyShed (always 0 under PolicyBlock).
//
// The per-sample work on this path — validation, partitioning and the
// shard-side monitor dispatch — performs zero heap allocations
// (chunks, staging tables and detection lines are pooled); the gate is
// TestIngestPathZeroAllocs.
func (s *Service) Ingest(payload []byte) (accepted, dropped int, err error) {
	maxID := uint32(s.cfg.MaxStreams)
	err = walkBatches(payload, func(recs []byte) error {
		for off := 0; off < len(recs); off += RecordBytes {
			if id := be32(recs[off:]); id >= maxID {
				return fmt.Errorf("stream: stream ID %d out of range (max %d)", id, maxID-1)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, 0, ErrClosed
	}

	stp := s.staging.Get().(*[]*chunk)
	st := *stp
	// The payload was just validated, so this walk cannot fail.
	walkBatches(payload, func(recs []byte) error {
		for off := 0; off < len(recs); off += RecordBytes {
			rec := recs[off : off+RecordBytes]
			si := s.shardFor(be32(rec))
			c := st[si]
			if c == nil {
				c = s.getChunk()
				st[si] = c
			}
			c.recs = append(c.recs, rec...)
		}
		return nil
	})
	for si, c := range st {
		if c == nil {
			continue
		}
		st[si] = nil
		n := len(c.recs) / RecordBytes
		if s.cfg.Policy == PolicyShed {
			select {
			case s.shards[si].ch <- c:
				accepted += n
			default:
				dropped += n
				atomic.AddUint64(&s.droppedSamples, uint64(n))
				atomic.AddUint64(&s.droppedBatches, 1)
				s.putChunk(c)
			}
		} else {
			s.shards[si].ch <- c
			accepted += n
		}
	}
	s.staging.Put(stp)
	return accepted, dropped, nil
}

// Flush blocks until every sample accepted before the call has been
// applied to its monitors and every detection line written so far is
// readable via DetectionsTo (or the journal files). It works by
// enqueueing a barrier chunk on every shard — even under PolicyShed a
// barrier is never dropped — and waiting for all of them.
func (s *Service) Flush() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	acks := make([]chan struct{}, len(s.shards))
	for i, sh := range s.shards {
		acks[i] = make(chan struct{})
		sh.ch <- &chunk{ack: acks[i]}
	}
	s.mu.RUnlock()
	for _, a := range acks {
		<-a
	}
	return s.firstErr()
}

// Close drains and stops the service: queues are closed, every already
// accepted sample is applied, journals are flushed and closed. In-
// flight Ingest/Flush calls finish first (they hold the read lock);
// later calls return ErrClosed. Close returns the first error the
// service encountered, if any.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.firstErr()
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.firstErr()
}

// DrainQueued processes everything sitting in the shard queues on the
// calling goroutine. Only for services built with NewUnstarted; a
// started service's shards own their queues.
func (s *Service) DrainQueued() {
	for _, sh := range s.shards {
	drain:
		for {
			select {
			case c := <-sh.ch:
				sh.process(c)
			default:
				break drain
			}
		}
	}
}

// StreamStats returns a stream's per-monitor accounting plus its sample
// counters as one consistent snapshot. The request travels the stream's
// shard queue like a flush barrier (never shed), and the shard
// goroutine, which owns the stream, answers between chunks: the reply
// covers exactly the chunks enqueued before it. ok is false if the
// stream has never sent a sample or the service is closed. On a
// service built with NewUnstarted the request waits for DrainQueued.
func (s *Service) StreamStats(id uint32) (stats []StreamMonitorStats, samples, detections, rejected uint64, ok bool) {
	s.mu.RLock()
	if s.closed || id >= uint32(s.cfg.MaxStreams) {
		s.mu.RUnlock()
		return nil, 0, 0, 0, false
	}
	req := &statsReq{id: id}
	ack := make(chan struct{})
	s.shards[s.shardFor(id)].ch <- &chunk{ack: ack, stats: req}
	s.mu.RUnlock()
	<-ack
	out := req.out
	return out.monitors, out.samples, out.detections, out.rejected, req.ok
}

// Metrics assembles the self-metrics snapshot.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Shards:         len(s.shards),
		DroppedBatches: atomic.LoadUint64(&s.droppedBatches),
		DroppedSamples: atomic.LoadUint64(&s.droppedSamples),
		PerShard:       make([]ShardSnapshot, 0, len(s.shards)),
	}
	var hist [histBuckets]uint64
	var histTotal uint64
	for _, sh := range s.shards {
		snap := sh.snapshot()
		m.Samples += snap.Samples
		m.Detections += snap.Detections
		m.Rejected += snap.Rejected
		m.PerShard = append(m.PerShard, snap)
		for b := 0; b < histBuckets; b++ {
			v := atomic.LoadUint64(&sh.m.hist[b])
			hist[b] += v
			histTotal += v
		}
	}
	if m.UptimeSeconds > 0 {
		m.SignalsPerSec = float64(m.Samples*NumSignals) / m.UptimeSeconds
	}
	m.P99TickLatencyNs = p99FromHist(&hist, histTotal)
	return m
}

// DetectionsTo flushes the service and streams every shard's detection
// journal to w, in shard order. Combined with per-shard FIFO this
// yields all detections of all samples accepted before the call;
// canonicalize (CanonicalizeDetections) before comparing against
// another observer.
func (s *Service) DetectionsTo(w io.Writer) error {
	if err := s.Flush(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		b, err := sh.sink.snapshot()
		if err != nil {
			return fmt.Errorf("stream: reading shard %d journal: %w", sh.idx, err)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
