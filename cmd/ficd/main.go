// Command ficd is the sharded campaign service: a long-running HTTP
// server that accepts campaign submissions, cuts each campaign's
// (error x case x version) grid into claimable shards, leases shards to
// `fic worker` processes with heartbeat-renewed expiry (a crashed
// worker's shards are reclaimed when its lease runs out), validates and
// merges the uploaded shard journals, and serves Tables 7-9 that are
// byte-identical to a single-process `fic` run of the same campaign.
//
// Usage:
//
//	ficd -listen :7070 -state /var/lib/ficd
//
// then, from any number of terminals or machines:
//
//	fic worker -server http://localhost:7070
//
// Submit a campaign with curl:
//
//	curl -d '{"kind":"e1","spec":{"grid":2,"observation_ms":1500}}' \
//	    http://localhost:7070/api/v1/campaigns
//
// and fetch the merged tables once the state is "complete":
//
//	curl http://localhost:7070/api/v1/campaigns/c1/results?format=text
//
// The full API reference, the shard-claim/lease state machine and the
// failure-mode table are in SERVICE.md. With -state set, campaigns
// survive service restarts: the shard ledger and uploaded journals are
// replayed from disk on startup.
//
// Flags:
//
//	-listen addr          HTTP listen address (default :7070)
//	-state dir            persistence directory (default: in-memory only)
//	-lease duration       shard lease between heartbeats (default 30s)
//	-cases-per-shard n    shard size in test cases (default 1)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"easig/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ficd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen        = flag.String("listen", ":7070", "HTTP listen address")
		stateDir      = flag.String("state", "", "persistence directory (empty = in-memory only; campaigns do not survive restarts)")
		lease         = flag.Duration("lease", service.DefaultLease, "shard lease duration; workers heartbeat at a third of this")
		casesPerShard = flag.Int("cases-per-shard", 1, "default shard size in test cases (submissions may override)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	srv, err := service.New(service.Options{
		Lease:         *lease,
		CasesPerShard: *casesPerShard,
		StateDir:      *stateDir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ficd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}

	// SIGINT or SIGTERM drains cleanly: in-flight uploads finish, the ledger and
	// shard journals are on disk, and a restart with the same -state
	// resumes every campaign where it left off.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ficd: listening on %s (lease %v, %d cases/shard", *listen, *lease, *casesPerShard)
	if *stateDir != "" {
		fmt.Fprintf(os.Stderr, ", state in %s", *stateDir)
	}
	fmt.Fprintln(os.Stderr, ")")

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "ficd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
