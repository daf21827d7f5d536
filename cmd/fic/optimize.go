package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/optimize"
)

// runOptimize is the `fic optimize` subcommand: sweep the full detector
// configuration lattice — every assertion subset x placement x recovery
// setting — score each point on measured detection probability, mean
// detection latency and per-tick CPU cost, and print the Pareto front
// with a recommended configuration per failure-cost budget. See
// OPTIMIZER.md for the cost model and the dominance rules.
func runOptimize(args []string) error {
	fs := flag.NewFlagSet("fic optimize", flag.ExitOnError)
	var (
		errorsF   = fs.String("errors", "e1", "swept error set: e1, e2 or exhaustive")
		grid      = fs.Int("grid", 5, "test-case grid edge (5 = the paper's 25 cases)")
		seed      = fs.Int64("seed", 2000, "sweep seed")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		period    = fs.Int64("period", 20, "injection period in ms")
		start     = fs.Int64("start", 500, "first injection time in ms")
		observe   = fs.Int64("observe", 40000, "observation period in ms")
		engineF   = fs.String("engine", "auto", "probe engine: auto (memo), literal, snapshot or memo")
		journalF  = fs.String("journal", "", "record the calibration and every probe to this JSONL journal")
		resumeF   = fs.String("resume", "", "resume an interrupted sweep from its journal (keeps appending to it)")
		progressF = fs.Bool("progress", false, "render a periodic progress line on stderr")
		formatF   = fs.String("format", "text", "report format: text, json or csv")
		outF      = fs.String("out", "", "write the report to this file instead of stdout")
		budgetsF  = fs.String("budgets", "", "comma-separated failure-cost budgets to recommend under, e.g. 0,1ms,1s,1000s")
		calTicks  = fs.Int("cal-ticks", 0, "calibration ticks per timed repetition (0 = default)")
		calReps   = fs.Int("cal-reps", 0, "calibration repetitions, minimum taken (0 = default)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err := checkScale(*grid, *observe, inject.Policy{StartMs: *start, PeriodMs: *period}); err != nil {
		return err
	}

	mode, err := inject.ParseMode(*engineF)
	if err != nil {
		return err
	}
	format, err := optimize.ParseFormat(*formatF)
	if err != nil {
		return err
	}
	budgets, err := parseBudgets(*budgetsF)
	if err != nil {
		return err
	}

	spec := optimize.Spec{
		Errors:        *errorsF,
		Grid:          *grid,
		Seed:          *seed,
		ObservationMs: *observe,
		Policy:        inject.Policy{StartMs: *start, PeriodMs: *period},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := optimize.Options{
		Mode:        mode,
		Workers:     *workers,
		Context:     ctx,
		Budgets:     budgets,
		Calibration: optimize.CalibrateOptions{Ticks: *calTicks, Reps: *calReps},
	}

	jw, log, err := openJournal(*journalF, *resumeF, "sweep")
	if err != nil {
		return err
	}
	if log != nil {
		opt.Resume = log
		fmt.Fprintf(os.Stderr, "fic: resuming sweep from %s (%d journaled probes%s)\n",
			*resumeF, len(log.Probes), truncatedNote(log))
	}
	if jw != nil {
		opt.Journal = jw
		defer jw.Close()
	}
	if *progressF {
		opt.Progress = progressPrinter("probes")
	}

	began := time.Now()
	fmt.Fprintf(os.Stderr, "fic: sweeping the %s configuration lattice (grid %d, engine %s)...\n",
		spec.Experiment(), *grid, inject.ProbeMode(mode))
	rep, err := optimize.Run(spec, opt)
	if err != nil {
		return interrupted(err, jw, *journalF, *resumeF, "sweep", "fic optimize")
	}
	fmt.Fprintf(os.Stderr, "fic: sweep done: %d probes -> %d configurations in %v (%s)\n",
		rep.Probes, rep.LatticeSize, time.Since(began).Round(time.Second), metricsLine(rep.Metrics, "probes"))

	var out experiment.Output = experiment.WriterOutput{W: os.Stdout}
	if *outF != "" {
		out = experiment.FileOutput{Path: *outF}
	}
	if err := out.Emit(func(w io.Writer) error { return format.Render(w, rep) }); err != nil {
		return err
	}
	if *outF != "" {
		fmt.Fprintf(os.Stderr, "fic: wrote %s\n", *outF)
	}
	if jw != nil {
		return jw.Close()
	}
	return nil
}

// parseBudgets parses the -budgets list: comma-separated Go durations,
// with a bare "0" accepted for the failures-free budget.
func parseBudgets(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("-budgets: %w", err)
		}
		if d < 0 {
			return nil, fmt.Errorf("-budgets: negative budget %v", d)
		}
		out = append(out, d)
	}
	return out, nil
}
