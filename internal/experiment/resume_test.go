package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"easig/internal/core"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/physics"
	"easig/internal/target"
)

// resumeTestConfig is a scaled E1/E2 campaign small enough for CI but
// large enough that an interruption partway leaves both journaled and
// missing runs.
func resumeTestConfig(seed int64) Config {
	return Config{
		Spec: Spec{
			Grid:          2,
			ObservationMs: 1500,
			Seed:          seed,
			Versions:      []target.Version{target.VersionAll, target.VersionEA4},
			E2:            inject.E2Spec{RAM: 8, Stack: 4},
		},
		Exec: Exec{Workers: 4},
	}
}

func TestE1InterruptResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign three times")
	}
	const seed = 424242
	path := filepath.Join(t.TempDir(), "e1.jsonl")

	// Baseline: the uninterrupted campaign.
	baseline, err := RunE1(resumeTestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	wantT7, wantT8 := Table7(baseline), Table8(baseline)

	// Interrupted: cancel partway through via the context path, with
	// every completed run journaled.
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := resumeTestConfig(seed)
	cfg.Context = ctx
	cfg.Journal = w
	stopAfter := baseline.Runs / 3
	var completed atomic.Int64
	cfg.Progress = func(ev journal.ProgressEvent) {
		if completed.Add(1) == int64(stopAfter) {
			cancel()
		}
	}
	if _, err := RunE1(cfg); err == nil {
		t.Fatal("interrupted campaign returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	cancel()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(log.Runs); n == 0 || n >= baseline.Runs {
		t.Fatalf("journal holds %d runs, want a strict partial campaign of %d", n, baseline.Runs)
	}
	if h, ok := log.Header(ExperimentE1); !ok || h.Total != baseline.Runs {
		t.Fatalf("journal header = %+v ok=%v, want total %d", h, ok, baseline.Runs)
	}

	// Resumed: replay the journal, dispatch only the missing runs.
	w2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg = resumeTestConfig(seed)
	cfg.Resume = log
	cfg.Journal = w2
	resumed, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Runs != baseline.Runs {
		t.Fatalf("resumed campaign collected %d runs, want %d", resumed.Runs, baseline.Runs)
	}
	if resumed.Metrics.Resumed != len(log.Runs) {
		t.Errorf("metrics report %d resumed runs, journal holds %d", resumed.Metrics.Resumed, len(log.Runs))
	}
	if resumed.Metrics.Runs != baseline.Runs-len(log.Runs) {
		t.Errorf("metrics report %d live runs, want %d", resumed.Metrics.Runs, baseline.Runs-len(log.Runs))
	}
	if got := Table7(resumed); got != wantT7 {
		t.Errorf("resumed Table 7 differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantT7, got)
	}
	if got := Table8(resumed); got != wantT8 {
		t.Errorf("resumed Table 8 differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantT8, got)
	}

	// The journal now holds the complete campaign: a second resume
	// replays everything and executes nothing.
	log, err = journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg = resumeTestConfig(seed)
	cfg.Resume = log
	full, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Metrics.Runs != 0 || full.Metrics.Resumed != baseline.Runs {
		t.Errorf("complete journal still executed %d live runs (resumed %d)", full.Metrics.Runs, full.Metrics.Resumed)
	}
	if got := Table7(full); got != wantT7 {
		t.Error("fully replayed Table 7 differs from uninterrupted run")
	}
}

func TestE2ResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign twice")
	}
	const seed = 99
	path := filepath.Join(t.TempDir(), "e2.jsonl")

	baseline, err := RunE2(resumeTestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	wantT9 := Table9(baseline)

	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := resumeTestConfig(seed)
	cfg.Context = ctx
	cfg.Journal = w
	var completed atomic.Int64
	cfg.Progress = func(journal.ProgressEvent) {
		if completed.Add(1) == int64(baseline.Runs/2) {
			cancel()
		}
	}
	if _, err := RunE2(cfg); err == nil {
		t.Fatal("interrupted campaign returned no error")
	}
	cancel()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg = resumeTestConfig(seed)
	cfg.Resume = log
	resumed, err := RunE2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Runs != baseline.Runs {
		t.Fatalf("resumed campaign collected %d runs, want %d", resumed.Runs, baseline.Runs)
	}
	if got := Table9(resumed); got != wantT9 {
		t.Errorf("resumed Table 9 differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantT9, got)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e1.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeTestConfig(1)
	cfg.Versions = []target.Version{target.VersionEA4}
	cfg.Grid = 1
	cfg.Journal = w
	// Literal, the one engine a recovery campaign can resume on.
	cfg.Mode = inject.ModeLiteral
	if _, err := RunE1(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Same shape, another protocol: the header check rejects each one
	// and names the field that differs.
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed = 2 }},
		{"policy", func(c *Config) { c.Policy = inject.Policy{StartMs: 500, PeriodMs: 200} }},
		{"observation_ms", func(c *Config) { c.ObservationMs = 3000 }},
		{"placement", func(c *Config) { c.Placement = target.PlacementProducer }},
		{"recovery", func(c *Config) { c.Recovery = core.PreviousValue{} }},
	} {
		bad := cfg
		bad.Journal = nil
		bad.Resume = log
		tc.edit(&bad)
		if _, err := RunE1(bad); err == nil {
			t.Errorf("journal from a different %s accepted", tc.field)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s mismatch: unhelpful error: %v", tc.field, err)
		}
	}

	// A header without a protocol was written by an older build.
	old := *log
	old.Headers = append([]journal.Header(nil), log.Headers...)
	old.Headers[0].Protocol = nil
	good := cfg
	good.Journal = nil
	good.Resume = &old
	if _, err := RunE1(good); err == nil || !strings.Contains(err.Error(), "fresh journal") {
		t.Errorf("header without a protocol: err = %v, want a fresh-journal refusal", err)
	}
}

// TestResumeRejectsRunnerModeMismatch checks the runner assertion on
// the replay path: a journal recorded under one engine mode must not
// be replayed into a campaign dispatching under another, even though
// the modes are outcome-equivalent — a mode switch mid-campaign would
// silently launder an unproven equivalence into the tables.
func TestResumeRejectsRunnerModeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e1.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeTestConfig(1)
	cfg.Versions = []target.Version{target.VersionEA4}
	cfg.Grid = 1
	cfg.Journal = w
	cfg.Mode = inject.ModeSnapshot
	if _, err := RunE1(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := log.Header(ExperimentE1); !ok || h.Runner != inject.ModeSnapshot.String() {
		t.Fatalf("journal header runner = %+v ok=%v, want %q", h, ok, inject.ModeSnapshot)
	}

	bad := cfg
	bad.Journal = nil
	bad.Resume = log
	bad.Mode = inject.ModeLiteral
	if _, err := RunE1(bad); err == nil {
		t.Error("journal from a different engine mode accepted")
	} else if !strings.Contains(err.Error(), "engine") {
		t.Errorf("unhelpful mode-mismatch error: %v", err)
	}

	// The matching mode resumes cleanly.
	good := bad
	good.Mode = inject.ModeSnapshot
	if _, err := RunE1(good); err != nil {
		t.Errorf("matching engine mode rejected: %v", err)
	}
}

// TestProgressRateCountsDispatchedRunsOnly pins the throughput contract
// of resumed campaigns: journal-replayed runs land in the aggregators at
// memory speed, so counting them as fresh completions would inflate
// RunsPerSec (and collapse the ETA) the moment a -resume campaign
// starts. Every progress event's rate and ETA must be derived from
// dispatched (live) runs alone.
func TestProgressRateCountsDispatchedRunsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign twice")
	}
	const seed = 31337
	path := filepath.Join(t.TempDir(), "e1.jsonl")

	// Record roughly half the campaign, then resume it.
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := resumeTestConfig(seed)
	cfg.Context = ctx
	cfg.Journal = w
	total := 0
	var completed atomic.Int64
	cfg.Progress = func(ev journal.ProgressEvent) {
		total = ev.Total
		if completed.Add(1) == int64(ev.Total/2) {
			cancel()
		}
	}
	if _, err := RunE1(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	cancel()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(log.Runs); n == 0 || n >= total {
		t.Fatalf("journal holds %d of %d runs, want a strict partial campaign", n, total)
	}

	cfg = resumeTestConfig(seed)
	cfg.Resume = log
	events := 0
	cfg.Progress = func(ev journal.ProgressEvent) {
		events++
		live := ev.Completed - ev.Resumed
		if ev.RunsPerSec == 0 {
			return // no live run finished yet (or zero elapsed)
		}
		// The rate must reconcile with the live count, not with
		// Completed: a rate derived from Completed would be off by the
		// resumed share (at least 2x here, since half the campaign
		// replays instantly).
		fromRate := ev.RunsPerSec * ev.Elapsed.Seconds()
		if diff := fromRate - float64(live); diff > 1.5 || diff < -1.5 {
			t.Fatalf("event %d: RunsPerSec %.1f x elapsed %v = %.1f runs, want the %d live runs (completed %d, resumed %d) — replayed runs counted as throughput",
				events, ev.RunsPerSec, ev.Elapsed, fromRate, live, ev.Completed, ev.Resumed)
		}
		if remaining := ev.Total - ev.Completed; remaining > 0 {
			wantETA := time.Duration(float64(remaining) / ev.RunsPerSec * float64(time.Second))
			if d := ev.ETA - wantETA; d > time.Millisecond || d < -time.Millisecond {
				t.Fatalf("event %d: ETA %v, want %v (remaining %d at %.1f live runs/s)",
					events, ev.ETA, wantETA, remaining, ev.RunsPerSec)
			}
		}
	}
	res, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Progress fires once per dispatched run; the replayed share only
	// pre-seeds Completed and Total.
	if events != total-len(log.Runs) {
		t.Errorf("progress delivered %d events, want one per dispatched run (%d)", events, total-len(log.Runs))
	}
	if res.Metrics.Resumed != len(log.Runs) || res.Metrics.Runs != total-len(log.Runs) {
		t.Errorf("metrics live/resumed = %d/%d, want %d/%d",
			res.Metrics.Runs, res.Metrics.Resumed, total-len(log.Runs), len(log.Runs))
	}
}

// TestRunAllCancelsOnWorkerError checks the failure path of the worker
// pool: one failing run must cancel the remaining workers promptly (no
// draining of the full grid) and surface the first error.
func TestRunAllCancelsOnWorkerError(t *testing.T) {
	cases := physics.Grid(2)
	bad := inject.Error{ID: "BAD", SignalIdx: -1, Region: target.RegionRAM, Addr: 0x0000, Bit: 0}
	good := inject.BuildE1()[0]
	var jobs []job
	jobs = append(jobs, job{version: target.VersionAll, errIdx: 0, err: bad, caseIdx: 0, tc: cases[0]})
	for i := 0; i < 400; i++ {
		jobs = append(jobs, job{version: target.VersionAll, errIdx: i + 1, err: good, caseIdx: 0, tc: cases[0]})
	}
	cfg := Config{
		Spec: Spec{
			Grid:          2,
			ObservationMs: 100,
			Policy:        inject.Policy{StartMs: 1, PeriodMs: 20},
			Seed:          7,
		},
		Exec: Exec{Workers: 4},
	}.withDefaults()

	mode, err := cfg.resolveMode()
	if err != nil {
		t.Fatal(err)
	}
	collected := 0
	h := cfg.header(ExperimentE1, mode.String(), len(jobs))
	_, err = runAll(cfg, h, mode, jobs, 0, func(outcome) { collected++ })
	if err == nil {
		t.Fatal("worker error not surfaced")
	}
	if !strings.Contains(err.Error(), "run failed") {
		t.Errorf("unexpected error: %v", err)
	}
	// The bad job fails on its first injection, long before the pool
	// could have drained 400 further jobs; cancellation must stop the
	// grid well short of completion.
	if collected >= len(jobs)/2 {
		t.Errorf("collected %d of %d outcomes after a failing run — workers drained instead of canceling", collected, len(jobs))
	}
}

// TestRunAllParentContext checks that a canceled parent context stops a
// campaign and is reported as an interruption, not a run failure.
func TestRunAllParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := resumeTestConfig(1)
	cfg.Context = ctx
	if _, err := RunE1(cfg); err == nil {
		t.Fatal("pre-canceled context ran the campaign")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}
