package stream

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket b
// holds samples whose per-sample processing time was in
// [2^(b-1), 2^b) nanoseconds (bucket 0 is <1 ns). 2^31 ns ≈ 2.1 s per
// sample is far beyond any real bucket, so the top bucket is a
// catch-all.
const histBuckets = 32

// shardMetrics is one shard's accounting as the metrics endpoint reads
// it: plain uint64s written with sync/atomic once per chunk by the
// shard goroutine, the only writer, and read atomically, so metrics
// readers never block it. Between chunks the fields agree with each
// other; a reader racing a publish may see some fields a chunk ahead.
//
// Latency is sampled per batch, not per sample: the shard timestamps a
// chunk once, divides the elapsed time by the record count and charges
// every sample the mean. This keeps time.Now off the per-sample path
// (two clock reads per chunk of up to 65535 samples) at the cost of
// flattening intra-batch variance, which is the documented trade-off
// of the p99 figure.
type shardMetrics struct {
	samples    uint64
	batches    uint64
	detections uint64
	rejected   uint64
	streams    uint64
	hist       [histBuckets]uint64
}

// observe charges a processed chunk of n samples taking d.
func (m *shardMetrics) observe(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	atomic.AddUint64(&m.samples, uint64(n))
	atomic.AddUint64(&m.batches, 1)
	per := uint64(d.Nanoseconds()) / uint64(n)
	b := bits.Len64(per)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	atomic.AddUint64(&m.hist[b], uint64(n))
}

// ShardSnapshot is one shard's externally visible state.
type ShardSnapshot struct {
	// Index is the shard number.
	Index int `json:"index"`
	// StreamLo and StreamHi bound the shard's stream-ID range [lo, hi).
	StreamLo uint32 `json:"stream_lo"`
	StreamHi uint32 `json:"stream_hi"`
	// Streams is the number of streams the shard has instantiated.
	Streams uint64 `json:"streams"`
	// Samples is the number of samples applied to monitors.
	Samples uint64 `json:"samples"`
	// Batches is the number of chunks processed.
	Batches uint64 `json:"batches"`
	// Detections is the number of assertion violations reported.
	Detections uint64 `json:"detections"`
	// Rejected is the number of records refused for an unknown mode.
	Rejected uint64 `json:"rejected"`
	// QueueDepth and QueueCap describe the ingest queue right now.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
}

// Metrics is the service-level self-metrics snapshot served on
// /api/v1/metrics.
type Metrics struct {
	// UptimeSeconds is the time since the service started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards is the shard count (constant for a service's lifetime).
	Shards int `json:"shards"`
	// Samples is the total number of samples applied.
	Samples uint64 `json:"samples"`
	// SignalsPerSec is signal observations per wall-clock second since
	// start (each sample carries NumSignals signals).
	SignalsPerSec float64 `json:"signals_per_sec"`
	// Detections is the total number of violations reported.
	Detections uint64 `json:"detections"`
	// Rejected is the total number of unknown-mode records refused.
	Rejected uint64 `json:"rejected"`
	// DroppedBatches and DroppedSamples count shed load (PolicyShed
	// only; always 0 under PolicyBlock).
	DroppedBatches uint64 `json:"dropped_batches"`
	DroppedSamples uint64 `json:"dropped_samples"`
	// P99TickLatencyNs bounds the per-sample processing latency of the
	// 99th percentile sample: the upper edge of the histogram bucket
	// holding it. 0 until anything was processed.
	P99TickLatencyNs uint64 `json:"p99_tick_latency_ns"`
	// PerShard is each shard's breakdown, in shard order.
	PerShard []ShardSnapshot `json:"per_shard"`
}

// p99FromHist returns the upper latency bound of the bucket containing
// the 99th-percentile sample of a merged histogram.
func p99FromHist(hist *[histBuckets]uint64, total uint64) uint64 {
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100 // ceil(0.99 * total)
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += hist[b]
		if cum >= rank {
			if b == 0 {
				return 1
			}
			return uint64(1) << b
		}
	}
	return uint64(1) << (histBuckets - 1)
}
