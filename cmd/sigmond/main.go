// Command sigmond is the streaming assertion-monitoring service: a
// long-running HTTP server that multiplexes thousands of independent
// plant signal streams over the paper's Table 4 executable assertions.
// Each stream gets its own monitor instances; streams are partitioned
// into shards, each shard owning a goroutine, a bounded ingest queue
// and a batched detection journal, so ingestion scales with cores and
// the per-sample hot path performs zero heap allocations.
//
// Usage:
//
//	sigmond -listen :7071 -shards 4 -max-streams 4096 -journal /var/lib/sigmond
//
// then replay traces against it with the load-generator client:
//
//	sigmon -replay -server http://localhost:7071 -streams 64 -ticks 5000 -verify
//
// Clients POST binary sample batches (the wire format in SIGMOND.md)
// to /api/v1/ingest; detections stream from /api/v1/detections and
// self-metrics (signals/s, per-shard queue depth, p99 tick latency)
// from /api/v1/metrics. The service's guarantee is observer
// equivalence: per stream, the detections are byte-identical to what
// an inline monitor suite embedded in the plant node would report.
//
// Flags:
//
//	-listen addr       HTTP listen address (default :7071)
//	-shards n          monitor-pool shards (default 4)
//	-max-streams n     stream-ID space bound (default 4096)
//	-queue n           per-shard ingest queue capacity in batches (default 64)
//	-policy p          backpressure policy: block or shed (default block)
//	-journal dir       detection journal directory (default: in-memory)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"easig/internal/stream"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sigmond:", err)
		os.Exit(1)
	}
}

// run executes the service until the listener fails or an interrupt
// arrives. The bound address is logged to logw ("listening on ..."),
// which is how the smoke test and scripts find a :0 listener's port.
func run(fs *flag.FlagSet, args []string, logw *os.File) error {
	var (
		listen     = fs.String("listen", ":7071", "HTTP listen address")
		shards     = fs.Int("shards", 4, "monitor-pool shards")
		maxStreams = fs.Int("max-streams", 4096, "stream-ID space bound")
		queue      = fs.Int("queue", 64, "per-shard ingest queue capacity in batches")
		policy     = fs.String("policy", "block", "backpressure policy: block (never drop) or shed (drop on full queue)")
		journalDir = fs.String("journal", "", "detection journal directory (empty = in-memory)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg := stream.Config{
		Shards:       *shards,
		MaxStreams:   *maxStreams,
		QueueBatches: *queue,
		JournalDir:   *journalDir,
	}
	switch *policy {
	case "block":
		cfg.Policy = stream.PolicyBlock
	case "shed":
		cfg.Policy = stream.PolicyShed
	default:
		return fmt.Errorf("unknown -policy %q (want block or shed)", *policy)
	}

	svc, err := stream.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		svc.Close()
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}

	// SIGINT or SIGTERM drains cleanly: the listener stops, in-flight ingests
	// finish, the shard queues are applied to the last sample, and the
	// detection journals are flushed and closed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "sigmond: listening on %s (%d shards, %d streams max, %s policy", ln.Addr(), cfg.Shards, cfg.MaxStreams, *policy)
	if cfg.JournalDir != "" {
		fmt.Fprintf(logw, ", journals in %s", cfg.JournalDir)
	}
	fmt.Fprintln(logw, ")")

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(logw, "sigmond: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		svc.Close()
		return err
	}
	return svc.Close()
}
