// Command fic is the fault-injection campaign controller (the paper's
// FIC3 analogue). It runs the paper's E1 and E2 campaigns and prints
// the corresponding result tables, or prints the static tables and
// figures. Campaigns can journal every run, render live progress, and
// resume an interrupted campaign from its journal with byte-identical
// tables (see ARCHITECTURE.md).
//
// Usage:
//
//	fic -experiment e1           # Tables 7 and 8 (22 400 runs at full scale)
//	fic -experiment e2           # Table 9 (5000 runs)
//	fic -experiment all          # everything plus the headline block
//	fic exhaustive               # measured Pdetect over the full 11 400-error fault space
//	fic -print table4|table6|figure2
//	fic -grid 3                  # scale the test-case grid down (3x3)
//	fic -recovery previous       # ablation: recovery repairs state
//	fic -placement producer      # ablation: test pressure signals where they are written
//	fic -period 20 -start 500    # injection schedule (ms)
//	fic -workers N -seed S
//	fic -journal runs.jsonl      # record one JSONL line per completed run
//	fic -resume runs.jsonl       # resume an interrupted campaign
//	fic -progress                # periodic progress line on stderr
//	fic -metrics                 # final JSON metrics block on stdout
//	fic -engine literal          # escape hatch: simulate every run from time zero
//	fic -format json             # render results as the machine-readable export
//	fic -cases 0,1 -journal s0.jsonl  # run one shard: only these test cases
//	fic merge s0.jsonl s1.jsonl  # print the tables of the merged shard journals
//	fic optimize -errors e1      # sweep the detector configuration lattice (see OPTIMIZER.md)
//
// A campaign runs as shards with -cases: each shard runs the listed
// test cases of the grid into its own -journal, and resumes with
// -resume like any campaign. `fic merge <journal>...` takes the same
// protocol flags as the campaign, merges the shard journals and prints
// the tables byte-identical to a single-process run; it refuses shards
// of another protocol or engine, a missing run, a wrong seed and a run
// outside the grid. Any scheduler can run the shards (xargs, make, a
// job array); see ARCHITECTURE.md's determinism contract for why the
// merge is sound.
//
// In optimize mode fic scores every assertion subset x placement x
// recovery configuration on detection probability, detection latency
// and measured CPU cost, and prints the Pareto front with a
// recommended configuration per failure-cost budget. The sweep
// journals (-journal) and resumes (-resume) like a campaign, with
// byte-identical reports; see OPTIMIZER.md.
//
// Results render through the shared reporter path (-format text|json):
// the same bytes whether a campaign ran in this process or was merged
// from shard journals.
//
// The -engine flag selects the execution engine behind the unified
// Runner API: auto (default — snapshot for detection-only campaigns,
// literal otherwise), literal (every run from time zero, as the
// hardware FIC3 ran), snapshot (one fast-forwarded checkpoint per test
// case, version builds derived from one profile run), or memo
// (snapshot plus def/use liveness pruning and outcome memoization).
// All engines render byte-identical tables (see PERFORMANCE.md). The
// exhaustive experiment defaults to the memo engine — pruning is what
// makes the full fault space affordable.
//
// For performance work, -cpuprofile and -memprofile write pprof
// profiles of the campaign (see PERFORMANCE.md for the workflow).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"easig"
	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "optimize" {
		if err := runOptimize(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "fic:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fic:", err)
		os.Exit(1)
	}
}

// checkScale rejects the scale and schedule flags shared by campaigns
// and `fic optimize`. The library reads a zero grid, window or period
// as "use the paper default", so passing one through would silently
// run the full-scale protocol.
func checkScale(grid int, observe int64, policy inject.Policy) error {
	switch {
	case grid < 1:
		return fmt.Errorf("-grid must be at least 1, got %d", grid)
	case observe < 1:
		return fmt.Errorf("-observe must be at least 1 ms, got %d", observe)
	case policy.PeriodMs < 1:
		return fmt.Errorf("-period must be at least 1 ms, got %d", policy.PeriodMs)
	}
	if err := policy.Validate(); err != nil {
		return fmt.Errorf("-start: %w", err)
	}
	return nil
}

// parseCases parses the -cases list of test-case indices ("" is the
// whole grid). Range and duplicates are checked against the grid by the
// campaign itself.
func parseCases(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var cases []int
	for _, f := range strings.Split(list, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-cases: %q is not a test-case index", f)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// run is the campaign command and, when args opens with "merge", the
// `fic merge <journal>...` subcommand: one flag set names the protocol
// either way, so a merge is checked against exactly the protocol its
// shards ran.
func run(args []string) error {
	merge := len(args) > 0 && args[0] == "merge"
	name := "fic"
	if merge {
		args, name = args[1:], "fic merge"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		experimentF = fs.String("experiment", "", "campaign to run: e1, e2 or all")
		printF      = fs.String("print", "", "static output: table4, table6 or figure2")
		grid        = fs.Int("grid", 5, "test-case grid edge (5 = the paper's 25 cases)")
		seed        = fs.Int64("seed", 2000, "campaign seed")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		recovery    = fs.String("recovery", "none", "assertion recovery: none (paper) or previous")
		placementF  = fs.String("placement", "consumer", "pressure-signal assertion placement: consumer (paper) or producer")
		period      = fs.Int64("period", 20, "injection period in ms")
		start       = fs.Int64("start", 500, "first injection time in ms")
		observe     = fs.Int64("observe", 40000, "observation period in ms")
		verify      = fs.Bool("verify", false, "verify the fault-free grid is detection-free before running")
		jsonPath    = fs.String("json", "", "also write machine-readable results to this file")
		journalF    = fs.String("journal", "", "record every completed run to this JSONL journal")
		resumeF     = fs.String("resume", "", "resume an interrupted campaign from its journal (keeps appending to it)")
		casesF      = fs.String("cases", "", "run one shard: comma-separated test-case indices of the grid (merge the shard journals with fic merge)")
		progressF   = fs.Bool("progress", false, "render a periodic progress line on stderr")
		metricsF    = fs.Bool("metrics", false, "print a final JSON metrics block (runs/sec, wall time, per-worker utilization)")
		engineF     = fs.String("engine", "auto", "execution engine: auto, literal, snapshot or memo")
		formatF     = fs.String("format", "text", "stdout report format: text (the paper's tables) or json")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile (post-GC, on exit) to this file")
	)
	fs.Parse(args)
	if err := checkScale(*grid, *observe, inject.Policy{StartMs: *start, PeriodMs: *period}); err != nil {
		return err
	}

	cases, err := parseCases(*casesF)
	if err != nil {
		return err
	}
	exp := *experimentF
	switch {
	case merge && fs.NArg() == 0:
		return fmt.Errorf("merge needs the shard journals to merge")
	case merge && (*journalF != "" || *resumeF != "" || cases != nil):
		return fmt.Errorf("merge reads the shard journals of the whole grid: -journal, -resume and -cases do not apply")
	case merge:
	case fs.NArg() == 1 && exp == "":
		// `fic exhaustive` (and friends) as a positional command.
		exp = fs.Arg(0)
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	switch *printF {
	case "":
	case "table4":
		fmt.Println(easig.Table4())
		return nil
	case "table6":
		fmt.Println(easig.Table6(*grid * *grid))
		return nil
	case "figure2":
		fmt.Println(easig.Figure2(72, 12, *seed))
		return nil
	default:
		return fmt.Errorf("unknown -print target %q", *printF)
	}

	var rp easig.RecoveryPolicy
	switch *recovery {
	case "none":
		rp = easig.NoRecovery{}
	case "previous":
		rp = easig.PreviousValue{}
	default:
		return fmt.Errorf("unknown -recovery %q (want none or previous)", *recovery)
	}
	var placement easig.Placement
	switch *placementF {
	case "consumer":
		placement = easig.PlacementConsumer
	case "producer":
		placement = easig.PlacementProducer
	default:
		return fmt.Errorf("unknown -placement %q (want consumer or producer)", *placementF)
	}

	// SIGINT or SIGTERM cancels the campaign cleanly: in-flight runs
	// finish, the journal keeps every completed run, and -resume picks
	// up there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mode, err := easig.ParseEngineMode(*engineF)
	if err != nil {
		return err
	}

	format, err := easig.ParseReportFormat(*formatF)
	if err != nil {
		return err
	}

	var exps []string
	switch exp {
	case "e1":
		exps = []string{experiment.ExperimentE1}
	case "e2":
		exps = []string{experiment.ExperimentE2}
	case "all":
		exps = []string{experiment.ExperimentE1, experiment.ExperimentE2}
	case "exhaustive":
		exps = []string{experiment.ExperimentExhaustive}
	case "":
		return fmt.Errorf("nothing to do: pass -experiment e1|e2|exhaustive|all or -print table4|table6|figure2")
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("creating -memprofile: %w", err)
		}
		defer func() {
			// Collect first so the profile shows live retained memory, not
			// the garbage of the last batch.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fic: writing heap profile:", err)
			}
			f.Close()
		}()
	}

	cfg := easig.CampaignConfig{
		Spec: easig.CampaignSpec{
			Grid:          *grid,
			Seed:          *seed,
			ObservationMs: *observe,
			Policy:        inject.Policy{StartMs: *start, PeriodMs: *period},
			Placement:     placement,
			Cases:         cases,
		},
		Exec: easig.CampaignExec{
			Mode:     mode,
			Workers:  *workers,
			Recovery: rp,
			Context:  ctx,
		},
	}
	if exp == "exhaustive" {
		cfg.Exhaustive = true
		if mode == easig.EngineAuto {
			// Pruning + memoization is what makes the full fault space
			// affordable; auto means memo here.
			cfg.Mode = easig.EngineMemo
		}
	}

	jw, log, err := openJournal(*journalF, *resumeF, "campaign")
	if err != nil {
		return err
	}
	if log != nil {
		cfg.Resume = log
		fmt.Fprintf(os.Stderr, "fic: resuming from %s (%d journaled runs%s)\n",
			*resumeF, len(log.Runs), truncatedNote(log))
	}
	if jw != nil {
		cfg.Journal = jw
		defer jw.Close()
	}
	if *progressF {
		cfg.Progress = progressPrinter("runs")
	}

	if *verify {
		fmt.Fprintln(os.Stderr, "fic: verifying the fault-free grid...")
		if err := easig.VerifyNominal(cfg); err != nil {
			return fmt.Errorf("nominal verification failed: %w", err)
		}
	}

	var res *easig.CampaignResults
	if merge {
		if res, err = mergeShards(cfg, fs.Args(), exps); err != nil {
			return err
		}
	} else if res, err = runCampaign(cfg, exps); err != nil {
		return interrupted(err, jw, *journalF, *resumeF, "campaign", "fic")
	}
	// All result rendering goes through the shared reporter path, so a
	// merged campaign's tables are byte-identical to a single-process
	// campaign's output by construction.
	rep := easig.CampaignReporter{Format: format, Output: easig.StdWriter{W: os.Stdout}}
	if err := rep.Report(res); err != nil {
		return err
	}
	if *metricsF {
		var ms []easig.CampaignMetrics
		if res.E1 != nil {
			ms = append(ms, res.E1.Metrics)
		}
		if res.E2 != nil {
			ms = append(ms, res.E2.Metrics)
		}
		if b, err := json.MarshalIndent(ms, "", "  "); err == nil {
			fmt.Println(string(b))
		}
	}
	if *jsonPath != "" {
		rep := easig.CampaignReporter{Format: easig.JSONReport{}, Output: easig.FileReport{Path: *jsonPath}}
		if err := rep.Report(res); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "fic: wrote %s\n", *jsonPath)
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runCampaign runs cfg's campaign for the named experiments in order,
// with a running and a done line on stderr for each.
func runCampaign(cfg easig.CampaignConfig, exps []string) (*easig.CampaignResults, error) {
	nCases := len(cfg.Cases)
	if nCases == 0 {
		nCases = cfg.Grid * cfg.Grid
	}
	res := &easig.CampaignResults{Spec: cfg.Spec}
	for _, exp := range exps {
		began := time.Now()
		label := "E1"
		var (
			m   easig.CampaignMetrics
			err error
		)
		switch exp {
		case experiment.ExperimentE1:
			fmt.Fprintf(os.Stderr, "fic: running E1 (%d errors x %d cases x 8 versions)...\n", 112, nCases)
			if res.E1, err = easig.RunE1(cfg); err == nil {
				m = res.E1.Metrics
			}
		default:
			nErrors := 200
			label = "E2"
			if cfg.Exhaustive {
				label, nErrors = "exhaustive E2", inject.ExhaustiveSize
			}
			fmt.Fprintf(os.Stderr, "fic: running %s (%d errors x %d cases)...\n", label, nErrors, nCases)
			if res.E2, err = easig.RunE2(cfg); err == nil {
				m = res.E2.Metrics
			}
		}
		if err != nil {
			return nil, err
		}
		// m.Runs counts dispatched runs only: journal-replayed runs cost
		// no simulation time and would inflate the throughput figure on
		// a resumed campaign.
		fmt.Fprintf(os.Stderr, "fic: %s done: %d live runs in %v (%s)\n",
			label, m.Runs, time.Since(began).Round(time.Second), metricsLine(m, "runs"))
	}
	return res, nil
}

// mergeShards loads the shard journals at paths and merges them into
// the results of cfg's campaign for the named experiments
// (experiment.MergeShards, which refuses an incomplete or foreign
// shard set).
func mergeShards(cfg easig.CampaignConfig, paths, exps []string) (*easig.CampaignResults, error) {
	logs := make([]*journal.Log, len(paths))
	for i, path := range paths {
		log, err := journal.Load(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "fic: merging %s (%d journaled runs%s)\n", path, len(log.Runs), truncatedNote(log))
		logs[i] = log
	}
	return experiment.MergeShards(cfg, logs, exps...)
}

// openJournal opens the -journal/-resume target shared by campaigns and
// sweeps: a fresh journal, or a resumed journal's loaded log plus a
// writer that keeps appending to it. Both are nil when neither flag is
// set. what names the interrupted unit ("campaign" or "sweep").
func openJournal(journalPath, resumePath, what string) (*journal.Writer, *journal.Log, error) {
	switch {
	case journalPath != "" && resumePath != "":
		return nil, nil, fmt.Errorf("-journal and -resume are exclusive: a resumed %s keeps appending to its own journal", what)
	case journalPath != "":
		w, err := journal.Create(journalPath)
		return w, nil, err
	case resumePath != "":
		log, err := journal.Load(resumePath)
		if err != nil {
			return nil, nil, err
		}
		w, err := journal.Open(resumePath)
		if err != nil {
			return nil, nil, err
		}
		return w, log, nil
	}
	return nil, nil, nil
}

// truncatedNote is the resume line's note on a kill-truncated tail.
func truncatedNote(log *journal.Log) string {
	if log.Truncated {
		return ", truncated tail dropped"
	}
	return ""
}

// progressPrinter renders the -progress line on stderr, at most once a
// second and always for the last unit; unit names what is counted.
func progressPrinter(unit string) func(journal.ProgressEvent) {
	var last time.Time
	return func(ev journal.ProgressEvent) {
		if time.Since(last) < time.Second && ev.Completed < ev.Total {
			return
		}
		last = time.Now()
		fmt.Fprintf(os.Stderr, "fic: %s %d/%d (%.1f%%) %.0f %s/s eta %s\n",
			ev.Experiment, ev.Completed, ev.Total,
			100*float64(ev.Completed)/float64(ev.Total),
			ev.RunsPerSec, unit, ev.ETA.Round(time.Second))
	}
}

// metricsLine condenses a dispatch's journal.Metrics into the final
// stderr summary: live throughput, and the replayed share on resumed
// runs (replayed units cost no simulation time, so they are kept out
// of the throughput figure).
func metricsLine(m journal.Metrics, unit string) string {
	s := fmt.Sprintf("%.0f %s/s live, %s engine", m.RunsPerSec, unit, m.Runner)
	if m.Pruned > 0 || m.MemoHits > 0 {
		s += fmt.Sprintf(", %.1f%% pruned, %.1f%% memo hits", 100*m.PruneRate, 100*m.MemoHitRate)
	}
	if m.Resumed > 0 {
		s += fmt.Sprintf(", %d replayed from journal", m.Resumed)
	}
	return s
}

// interrupted closes the journal so every completed unit is on disk,
// then decorates an interruption with the resume hint: what names the
// interrupted unit and cmd the command that resumes it.
func interrupted(err error, jw *journal.Writer, journalPath, resumePath, what, cmd string) error {
	path := journalPath
	if path == "" {
		path = resumePath
	}
	if jw != nil {
		if cerr := jw.Close(); cerr != nil {
			return cerr
		}
	}
	if errors.Is(err, context.Canceled) && path != "" {
		return fmt.Errorf("%w\nfic: %s interrupted; resume with: %s -resume %s <same flags>", err, what, cmd, path)
	}
	return err
}
