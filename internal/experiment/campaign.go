// Package experiment reproduces the paper's evaluation: the E1 and E2
// error-injection campaigns (§3.4), the coverage and latency tables
// (Tables 6-9) and the Figure 2 example traces. Campaigns are
// deterministic functions of their seed and run in parallel across a
// worker pool; they can journal every run, report live progress, and
// resume an interrupted campaign from its journal with byte-identical
// tables (see internal/journal and ARCHITECTURE.md).
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"easig/internal/core"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/physics"
	"easig/internal/stats"
	"easig/internal/target"
)

// Experiment names used in journal headers, records and progress
// events: the paper's two §3.4 error-injection campaigns.
const (
	// ExperimentE1 is the single-bit error set over monitored signals
	// (Tables 7 and 8).
	ExperimentE1 = "E1"
	// ExperimentE2 is the random RAM/stack error set (Table 9).
	ExperimentE2 = "E2"
	// ExperimentExhaustive is the full RAM/stack fault space (every
	// (byte, bit) position — 11 400 errors) that replaces E2's
	// 200-error sample when Spec.Exhaustive is set. It journals under
	// its own name so an exhaustive journal can never be replayed into
	// a sampled campaign (the error indices mean different errors).
	ExperimentExhaustive = "E2-exhaustive"
)

// Spec is the serializable protocol of a campaign: everything that
// determines WHICH runs exist and, with Exec.Recovery, what their
// outcomes are. Two campaigns with equal Specs and recovery policies
// produce byte-identical tables regardless of their other Exec options
// (engine mode, worker count, journaling) — that
// is the equivalence contract the runner matrix tests enforce, and it
// is why a journal header binds the Spec (Config.header).
type Spec struct {
	// Grid is the test-case grid edge: Grid*Grid <mass, velocity>
	// cases (default 5, the paper's 25 test cases).
	Grid int `json:"grid,omitempty"`
	// ObservationMs is the per-run observation window (default the
	// paper's 40 s).
	ObservationMs int64 `json:"observation_ms,omitempty"`
	// Policy is the injection schedule (default 20 ms period).
	Policy inject.Policy `json:"policy,omitempty"`
	// Seed derives all per-run seeds and the E2 error sample.
	Seed int64 `json:"seed,omitempty"`
	// E2 sizes the random error set (default 150 RAM + 50 stack).
	E2 inject.E2Spec `json:"e2,omitempty"`
	// Exhaustive replaces the E2 sample with the full fault space:
	// every (byte, bit) position of RAM and stack (8 × 1425 = 11 400
	// errors), turning the paper's estimated Pdetect into a measured
	// one. Runs as ExperimentExhaustive; E2 sizing is ignored.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Versions lists the software versions exercised by E1 (default
	// the paper's eight: EA1..EA7 and All).
	Versions []target.Version `json:"versions,omitempty"`
	// Placement selects consumer-side (paper) or producer-side
	// assertion execution (ablation).
	Placement target.Placement `json:"placement,omitempty"`
	// Cases, when non-empty, restricts the campaign to the listed
	// test-case indices of the Grid (0 <= index < Grid*Grid). This is
	// the shard selector (fic -cases): a shard runs the campaign Spec
	// with Cases set to its test cases, and because every per-run seed
	// is a function of the campaign seed and the GLOBAL case index
	// only, the shard's journal records are byte-identical to the same
	// runs of a single-process campaign — which is what makes merging
	// shard journals sound (MergeShards, ARCHITECTURE.md).
	Cases []int `json:"cases,omitempty"`
}

// Exec is the execution side of a campaign: how the Spec's runs are
// dispatched. Apart from Recovery, none of it may change a single table
// cell; Recovery does, so a journal header binds it together with the
// Spec (Config.header).
type Exec struct {
	// Mode selects the execution engine behind the runs:
	// inject.ModeAuto (the zero value) resolves to the snapshot engine
	// for detection-only campaigns and to literal from-scratch runs
	// otherwise; ModeMemo adds liveness pruning and outcome
	// memoization on top of the snapshot engine. Snapshot and memo
	// modes are rejected for campaigns with an active recovery policy
	// (their equivalence argument needs detection-only runs).
	Mode inject.Mode
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Recovery overrides the assertion recovery policy (default
	// detection-only, core.NoRecovery; see inject.RunConfig).
	Recovery core.RecoveryPolicy
	// Context, when non-nil, cancels an in-flight campaign: workers
	// stop promptly, the journal keeps every completed run, and the
	// campaign returns the context's error.
	Context context.Context
	// Journal, when non-nil, receives one record per completed run
	// (run coordinates, derived seed, detected/failed/latency/ByTest),
	// appended by the journal's writer goroutine. An interrupted
	// campaign can later be resumed from the file via Resume.
	Journal *journal.Writer
	// Resume, when non-nil, replays the loaded journal's outcomes
	// straight into the aggregators and dispatches only the missing
	// runs. Because per-run seeds are deterministic functions of the
	// campaign seed and run coordinates (see runSeed), a resumed
	// campaign reproduces the uninterrupted campaign's tables byte for
	// byte; a journal recorded under a different protocol or runner
	// mode is rejected (journal.Header.Match).
	Resume *journal.Log
	// Progress, when non-nil, is called from the collector goroutine
	// after every completed or replayed run with throughput,
	// completed/total and ETA.
	Progress func(journal.ProgressEvent)
	// ReplayOnly asserts that Resume covers the whole campaign: every
	// run must replay from the journal and none may be dispatched. It
	// is the merge guard of a sharded campaign — a missing record in
	// the merged shard journals means a shard was lost or cut, and
	// silently re-executing it here would mask the loss instead of
	// surfacing it (see MergeShards).
	ReplayOnly bool
}

// Config parameterises a campaign: the serializable protocol Spec plus
// the Exec dispatch options. The zero value runs the paper's full
// protocol on the auto-resolved engine; tests scale Grid and Errors
// down. Both halves' fields are promoted, so cfg.Grid and cfg.Workers
// read as before the split.
type Config struct {
	Spec
	Exec
}

func (c Config) withDefaults() Config {
	if c.Grid <= 0 {
		c.Grid = 5
	}
	if c.ObservationMs <= 0 {
		c.ObservationMs = inject.DefaultObservationMs
	}
	if c.Policy.PeriodMs <= 0 {
		c.Policy = inject.DefaultPolicy()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Recovery == nil {
		c.Recovery = core.NoRecovery{}
	}
	if c.E2.RAM == 0 && c.E2.Stack == 0 {
		c.E2 = inject.DefaultE2Spec()
	}
	if len(c.Versions) == 0 {
		c.Versions = target.Versions()
	}
	return c
}

// header is the journal header of the campaign's exp runs under the
// named runner. Its protocol is the Spec with defaults applied and the
// shard selector cleared, so a shard journal and a single-process
// journal of one campaign agree, plus the recovery policy, the one Exec
// field that changes outcomes.
func (c Config) header(exp, runner string, total int) journal.Header {
	c = c.withDefaults()
	c.Cases = nil
	// Marshal cannot fail: the protocol is ints, strings and slices.
	protocol, _ := json.Marshal(struct {
		Spec
		Recovery string `json:"recovery"`
	}{c.Spec, fmt.Sprintf("%#v", c.Recovery)})
	return journal.Header{Experiment: exp, Total: total, Runner: runner, Protocol: protocol}
}

// runSeed derives a deterministic per-run seed from the campaign seed
// and the run's test case, using splitmix64 mixing. The seed is a
// function of the test case ONLY — not of the version or the error —
// because that is what the real FIC3 protocol implies and what the
// fast-forward engine requires: every error of a test case replays the
// same arrestment (the same sensor-noise sequence), the injected error
// is the only difference between runs, and the version build does not
// touch the plant. One nominal prefix snapshot per test case therefore
// serves every (version, error) run of that case.
func runSeed(campaign int64, caseIdx int) int64 {
	x := uint64(campaign) ^ 0x9E3779B97F4A7C15
	x += (uint64(caseIdx) + 1) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// RunSeed exposes the campaign seed derivation to other sweeps over the
// same grid — the optimizer's lattice sweep (internal/optimize) derives
// its per-probe seeds with it, so an optimizer journal is checkable
// against the same determinism contract as a campaign journal.
func RunSeed(campaign int64, caseIdx int) int64 { return runSeed(campaign, caseIdx) }

// gridCase pairs a test case with its GLOBAL grid index; the index, not
// the position in a shard's case subset, keys journal records and
// per-run seeds.
type gridCase struct {
	idx int
	tc  physics.TestCase
}

// gridCases resolves the campaign's test cases: the full Grid*Grid set,
// or the Spec.Cases shard subset (validated against the grid bounds,
// with duplicates rejected — a duplicate case would double-count every
// run of that case in the tables).
func (c Config) gridCases() ([]gridCase, error) {
	all := physics.Grid(c.Grid)
	if len(c.Cases) == 0 {
		out := make([]gridCase, len(all))
		for i, tc := range all {
			out[i] = gridCase{idx: i, tc: tc}
		}
		return out, nil
	}
	seen := make(map[int]bool, len(c.Cases))
	out := make([]gridCase, 0, len(c.Cases))
	for _, idx := range c.Cases {
		if idx < 0 || idx >= len(all) {
			return nil, fmt.Errorf("experiment: case index %d out of range for a %dx%d grid", idx, c.Grid, c.Grid)
		}
		if seen[idx] {
			return nil, fmt.Errorf("experiment: case index %d listed twice", idx)
		}
		seen[idx] = true
		out = append(out, gridCase{idx: idx, tc: all[idx]})
	}
	return out, nil
}

// job is one run descriptor handed to the worker pool.
type job struct {
	version target.Version
	errIdx  int
	err     inject.Error
	caseIdx int
	tc      physics.TestCase
}

// outcome pairs a job with its run result.
type outcome struct {
	job job
	res inject.RunResult
}

// record converts one live outcome into its journal form.
func record(exp string, o outcome, seed int64) journal.Record {
	rec := journal.Record{
		Experiment: exp,
		Version:    int(o.job.version),
		ErrIdx:     o.job.errIdx,
		ErrID:      o.job.err.ID,
		CaseIdx:    o.job.caseIdx,
		Seed:       seed,
		Detected:   o.res.Detected,
		Failed:     o.res.Failed,
		LatencyMs:  o.res.LatencyMs,
	}
	if len(o.res.ByTest) > 0 {
		rec.ByTest = make(map[int]int, len(o.res.ByTest))
		for id, n := range o.res.ByTest {
			rec.ByTest[int(id)] = n
		}
	}
	return rec
}

// replay converts a journaled record back into the outcome the
// aggregators would have collected live. Only the aggregated fields
// (detected/failed/latency and, when byTest is set, ByTest) round-trip;
// plant readouts do not, which is fine because no table consumes them.
func replay(j job, rec *journal.Record, byTest bool) outcome {
	res := inject.RunResult{
		Detected:  rec.Detected,
		Failed:    rec.Failed,
		LatencyMs: rec.LatencyMs,
	}
	if byTest && len(rec.ByTest) > 0 {
		res.ByTest = make(map[core.TestID]int, len(rec.ByTest))
		for id, n := range rec.ByTest {
			res.ByTest[core.TestID(id)] = n
		}
	}
	return outcome{job: j, res: res}
}

// partition splits the campaign jobs into journaled outcomes, replayed
// straight into collect in job order, and live jobs still to dispatch;
// it returns the live jobs and the number replayed. Replayed outcomes
// carry ByTest only when byTest is set, for collectors that read it. It
// enforces the resume soundness checks: the journal's header must match
// the live header h — protocol AND resolved runner mode
// (journal.Log.CheckResume) — and every replayed record's stored seed
// must equal the seed re-derived from the run coordinates. On error the
// collected outcomes are partial and the caller discards them.
func partition(cfg Config, h journal.Header, jobs []job, byTest bool, collect func(outcome)) (live []job, replayed int, err error) {
	if cfg.Resume == nil {
		return jobs, 0, nil
	}
	if err := cfg.Resume.CheckResume(h); err != nil {
		return nil, 0, fmt.Errorf("experiment: %w", err)
	}
	exp := h.Experiment
	byKey := cfg.Resume.Lookup(exp)
	if len(byKey) == 0 {
		return jobs, 0, nil
	}
	live = make([]job, 0, max(len(jobs)-len(byKey), 0))
	for _, j := range jobs {
		rec, ok := byKey[journal.Key{Version: int(j.version), ErrIdx: j.errIdx, CaseIdx: j.caseIdx}]
		if !ok {
			live = append(live, j)
			continue
		}
		if want := runSeed(cfg.Seed, j.caseIdx); rec.Seed != want {
			return nil, 0, fmt.Errorf("experiment: journaled %s run %s case %d has seed %d, want %d — journal is from a different campaign",
				exp, j.err.ID, j.caseIdx, rec.Seed, want)
		}
		collect(replay(j, rec, byTest))
		replayed++
	}
	return live, replayed, nil
}

// checkReplayOnly enforces Exec.ReplayOnly after partitioning: a
// replay-only campaign (the merge step of a sharded campaign) must
// find every run in its journal.
func (c Config) checkReplayOnly(exp string, live []job, total int) error {
	if !c.ReplayOnly || len(live) == 0 {
		return nil
	}
	return fmt.Errorf("experiment: replay-only %s campaign is missing %d of %d journaled runs (first missing: version %d error %d case %d) — a shard journal is absent or incomplete",
		exp, len(live), total, int(live[0].version), live[0].errIdx, live[0].caseIdx)
}

// resolveMode resolves the configured engine mode against the recovery
// policy: auto picks snapshot for detection-only campaigns and literal
// otherwise; explicit snapshot/memo with active recovery is an error.
func (c Config) resolveMode() (inject.Mode, error) {
	return c.Mode.Resolve(c.Recovery)
}

// engineBatchErrors is the number of errors a worker serves from one
// fast-forwarded snapshot before handing control back to the pool: big
// enough to amortise the per-batch scheduling cost, small enough to
// keep the pool load-balanced on scaled grids.
const engineBatchErrors = 8

// memoBatchErrors is the memo-mode chunk. PR 6 scheduled each test
// case as ONE batch because splitting it would have rebuilt the
// expensive per-case liveness profile per chunk and hidden duplicate
// draws from the memo; with the profile and the memo shared through
// inject.ProfileCache and inject.SharedMemo that restriction is gone,
// and chunking lets the exhaustive census parallelize WITHIN a case
// (11 400 error positions per case versus only 25 cases). The chunk is
// larger than the snapshot engine's because most memo-mode errors are
// served by the liveness pruner in microseconds.
const memoBatchErrors = 64

// batch is the engine-mode work unit: a chunk of live jobs that share
// one test case, sorted so jobs of the same error are adjacent.
type batch struct {
	caseIdx int
	tc      physics.TestCase
	jobs    []job
}

// buildBatches groups the live jobs by test case and chunks each case's
// errors, preserving a deterministic order. The chunking follows the
// per-batch cost profile: literal runs share nothing (single-job
// batches, the old per-run dispatch); the snapshot engine serves
// chunks of engineBatchErrors from its restored checkpoint; the memo
// runner serves larger chunks (memoBatchErrors) because liveness-
// pruned errors cost microseconds. The per-case liveness profile and
// outcome memo that once forced whole-case memo batches now live in
// the campaign-wide ProfileCache/SharedMemo, shared by every chunk.
func buildBatches(live []job, mode inject.Mode) []batch {
	if mode == inject.ModeLiteral {
		batches := make([]batch, 0, len(live))
		for _, j := range live {
			batches = append(batches, batch{caseIdx: j.caseIdx, tc: j.tc, jobs: []job{j}})
		}
		return batches
	}
	chunk := engineBatchErrors
	if mode == inject.ModeMemo {
		chunk = memoBatchErrors
	}
	type caseKey struct {
		caseIdx int
		tc      physics.TestCase
	}
	perCase := make(map[caseKey]map[int][]job)
	var caseOrder []caseKey
	for _, j := range live {
		k := caseKey{j.caseIdx, j.tc}
		if perCase[k] == nil {
			perCase[k] = make(map[int][]job)
			caseOrder = append(caseOrder, k)
		}
		perCase[k][j.errIdx] = append(perCase[k][j.errIdx], j)
	}
	var batches []batch
	for _, k := range caseOrder {
		errIdxs := make([]int, 0, len(perCase[k]))
		for ei := range perCase[k] {
			errIdxs = append(errIdxs, ei)
		}
		sort.Ints(errIdxs)
		for from := 0; from < len(errIdxs); from += chunk {
			to := from + chunk
			if to > len(errIdxs) {
				to = len(errIdxs)
			}
			b := batch{caseIdx: k.caseIdx, tc: k.tc}
			for _, ei := range errIdxs[from:to] {
				b.jobs = append(b.jobs, perCase[k][ei]...)
			}
			batches = append(batches, b)
		}
	}
	return batches
}

// runAll writes the campaign header h and dispatches the live jobs on
// the grid dispatcher (Dispatch, scheduler.go), streaming outcomes to
// collect and journaling each one. Batches are shaped for the resolved
// engine mode; per-case profiles are computed once per campaign in an
// inject.ProfileCache and shared read-only by every worker's runner,
// and memo-mode workers additionally share each case's outcome memo,
// merged at batch barriers. The returned metrics cover the live runs
// (resumed only sizes the progress totals).
func runAll(cfg Config, h journal.Header, mode inject.Mode, jobs []job, resumed int, collect func(outcome)) (journal.Metrics, error) {
	exp := h.Experiment
	if cfg.Journal != nil {
		if err := cfg.Journal.Header(h); err != nil {
			return journal.Metrics{}, err
		}
	}

	batches := buildBatches(jobs, mode)
	cache := inject.NewProfileCache()
	var memos map[int]*inject.SharedMemo
	if mode == inject.ModeMemo {
		memos = make(map[int]*inject.SharedMemo)
		for _, b := range batches {
			if memos[b.caseIdx] == nil {
				memos[b.caseIdx] = &inject.SharedMemo{}
			}
		}
	}

	pool := Pool{
		Context:    cfg.Context,
		Workers:    cfg.Workers,
		Experiment: exp,
		Runner:     mode.String(),
		Resumed:    resumed,
		Total:      h.Total,
		Progress:   cfg.Progress,
	}
	newWorker := func() Worker[batch, outcome] { return newWorkerRunners(cfg, mode, cache, memos) }
	metrics, err := Dispatch(pool, batches, newWorker, func(o outcome) error {
		collect(o)
		if cfg.Journal == nil {
			return nil
		}
		return cfg.Journal.Run(record(exp, o, runSeed(cfg.Seed, o.job.caseIdx)))
	})
	if err != nil && cfg.Context != nil && err == cfg.Context.Err() {
		err = fmt.Errorf("experiment: campaign interrupted: %w", err)
	}
	return metrics, err
}

// E1Result aggregates the E1 campaign into the cells of the paper's
// Tables 7 and 8: per (signal, version) coverage and latency, with
// per-version totals.
type E1Result struct {
	// Versions lists the exercised versions in column order.
	Versions []target.Version
	// Coverage is indexed [signal][versionIdx].
	Coverage [target.NumEAs][]stats.Coverage
	// Latency is indexed [signal][versionIdx]; it aggregates all
	// detected errors (failing and non-failing runs), as Table 8 does.
	Latency [target.NumEAs][]stats.Latency
	// ByTest is indexed [versionIdx] and counts violations per
	// violated assertion kind (which Table 2/3 constraint fired),
	// aggregated over all runs of that version.
	ByTest []map[core.TestID]int
	// Runs is the number of collected runs (live plus replayed).
	Runs int
	// Metrics summarizes the campaign's execution (throughput, wall
	// time, per-worker utilization).
	Metrics journal.Metrics
}

// versionIndex returns the column of v in r.Versions.
func (r *E1Result) versionIndex(v target.Version) int {
	for i, x := range r.Versions {
		if x == v {
			return i
		}
	}
	return -1
}

// TotalCoverage folds the per-signal coverage of one version column
// into the Table 7 "Total" row.
func (r *E1Result) TotalCoverage(versionIdx int) stats.Coverage {
	var total stats.Coverage
	for sig := 0; sig < target.NumEAs; sig++ {
		total.Merge(r.Coverage[sig][versionIdx])
	}
	return total
}

// TotalLatency folds the per-signal latency of one version column into
// the Table 8 "Total" row.
func (r *E1Result) TotalLatency(versionIdx int) stats.Latency {
	var total stats.Latency
	for sig := 0; sig < target.NumEAs; sig++ {
		total.Merge(r.Latency[sig][versionIdx])
	}
	return total
}

// RunE1 executes the E1 campaign: every error of Table 6 against every
// test case of the grid, once per software version (the paper's
// 2800 x 8 = 22 400 runs at full scale).
func RunE1(cfg Config) (*E1Result, error) {
	cfg = cfg.withDefaults()
	mode, err := cfg.resolveMode()
	if err != nil {
		return nil, err
	}
	errors := inject.BuildE1()
	cases, err := cfg.gridCases()
	if err != nil {
		return nil, err
	}
	res := &E1Result{Versions: cfg.Versions}
	for sig := range res.Coverage {
		res.Coverage[sig] = make([]stats.Coverage, len(cfg.Versions))
		res.Latency[sig] = make([]stats.Latency, len(cfg.Versions))
	}
	res.ByTest = make([]map[core.TestID]int, len(cfg.Versions))
	for i := range res.ByTest {
		res.ByTest[i] = make(map[core.TestID]int)
	}
	jobs := make([]job, 0, len(cfg.Versions)*len(errors)*len(cases))
	for _, v := range cfg.Versions {
		for ei, e := range errors {
			for _, gc := range cases {
				jobs = append(jobs, job{version: v, errIdx: ei, err: e, caseIdx: gc.idx, tc: gc.tc})
			}
		}
	}
	collect := func(o outcome) {
		vi := res.versionIndex(o.job.version)
		sig := o.job.err.SignalIdx
		res.Coverage[sig][vi].Add(o.res.Detected, o.res.Failed)
		if o.res.Detected {
			res.Latency[sig][vi].Add(o.res.LatencyMs)
		}
		for id, n := range o.res.ByTest {
			res.ByTest[vi][id] += n
		}
		res.Runs++
	}
	h := cfg.header(ExperimentE1, mode.String(), len(jobs))
	live, replayed, err := partition(cfg, h, jobs, true, collect)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkReplayOnly(ExperimentE1, live, len(jobs)); err != nil {
		return nil, err
	}
	res.Metrics, err = runAll(cfg, h, mode, live, replayed, collect)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// E2Result aggregates the E2 campaign into the paper's Table 9: RAM,
// stack and total coverage, plus the two latency aggregates the table
// reports (all detected errors, and detected errors of failing runs).
type E2Result struct {
	// Coverage maps region name ("ram", "stack") to its coverage.
	Coverage map[string]*stats.Coverage
	// LatencyAll maps region name to the latency over all detections.
	LatencyAll map[string]*stats.Latency
	// LatencyFail maps region name to the latency over detections in
	// failing runs.
	LatencyFail map[string]*stats.Latency
	// Runs is the number of collected runs (live plus replayed).
	Runs int
	// Metrics summarizes the campaign's execution (throughput, wall
	// time, per-worker utilization).
	Metrics journal.Metrics
}

// Total folds the regions into the Table 9 "Total" row.
func (r *E2Result) Total() (stats.Coverage, stats.Latency, stats.Latency) {
	var cov stats.Coverage
	var lat, latFail stats.Latency
	for _, c := range r.Coverage {
		cov.Merge(*c)
	}
	for _, l := range r.LatencyAll {
		lat.Merge(*l)
	}
	for _, l := range r.LatencyFail {
		latFail.Merge(*l)
	}
	return cov, lat, latFail
}

// RunE2 executes the E2 campaign: the random error set against every
// test case of the grid, on the All-assertions version (the paper's
// 5000 runs at full scale). With Spec.Exhaustive it swaps the 200-error
// sample for the full 11 400-position fault space and journals as
// ExperimentExhaustive.
func RunE2(cfg Config) (*E2Result, error) {
	cfg = cfg.withDefaults()
	mode, err := cfg.resolveMode()
	if err != nil {
		return nil, err
	}
	exp := ExperimentE2
	errors := inject.BuildE2(cfg.E2, cfg.Seed)
	if cfg.Exhaustive {
		exp = ExperimentExhaustive
		errors = inject.BuildExhaustive()
	}
	cases, err := cfg.gridCases()
	if err != nil {
		return nil, err
	}
	res := &E2Result{
		Coverage:    map[string]*stats.Coverage{},
		LatencyAll:  map[string]*stats.Latency{},
		LatencyFail: map[string]*stats.Latency{},
	}
	for _, region := range []string{target.RegionRAM, target.RegionStack} {
		res.Coverage[region] = &stats.Coverage{}
		res.LatencyAll[region] = &stats.Latency{}
		res.LatencyFail[region] = &stats.Latency{}
	}
	jobs := make([]job, 0, len(errors)*len(cases))
	for ei, e := range errors {
		for _, gc := range cases {
			jobs = append(jobs, job{version: target.VersionAll, errIdx: ei, err: e, caseIdx: gc.idx, tc: gc.tc})
		}
	}
	collect := func(o outcome) {
		region := o.job.err.Region
		res.Coverage[region].Add(o.res.Detected, o.res.Failed)
		if o.res.Detected {
			res.LatencyAll[region].Add(o.res.LatencyMs)
			if o.res.Failed {
				res.LatencyFail[region].Add(o.res.LatencyMs)
			}
		}
		res.Runs++
	}
	h := cfg.header(exp, mode.String(), len(jobs))
	live, replayed, err := partition(cfg, h, jobs, false, collect)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkReplayOnly(exp, live, len(jobs)); err != nil {
		return nil, err
	}
	res.Metrics, err = runAll(cfg, h, mode, live, replayed, collect)
	if err != nil {
		return nil, err
	}
	return res, nil
}
