package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/optimize"
	"easig/internal/physics"
	"easig/internal/target"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json's runs
// use; the smoke test shrinks it.
type scale struct {
	e1Grid, exhaustiveGrid, latticeGrid, replayGrid int
	// observeMs is the observation window of the e1, exhaustive and
	// lattice jobs; replayObserveMs that of the census journal_replay
	// replays (short, so the journal is large but cheap to produce).
	observeMs, replayObserveMs int64
	// checks is how many journal records or probes each run re-executes
	// under the literal reference.
	checks int
	// oneRung runs only the reference rung of each stream ladder.
	oneRung bool
	// traceLatticeObserveMs is the probe window of the traced lattice
	// re-execution; traceStride thins the traced exhaustive census to
	// every traceStride-th fault position. Both keep a traced pass near
	// half a second.
	traceLatticeObserveMs int64
	traceStride           int
}

var fullScale = scale{
	e1Grid: 2, exhaustiveGrid: 1, latticeGrid: 2, replayGrid: 2,
	observeMs: 40000, replayObserveMs: 1500, checks: 32,
	traceLatticeObserveMs: 12000, traceStride: 4,
}

// ficSeed is the campaign seed of job i of a run: inputs differ per job
// and per run seed, and are the same for the same run seed.
func ficSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// batch is one batch workload's fic invocation.
type batch struct {
	// ready is the stderr prefix that ends the job's set-up.
	ready string
	// prepare returns the arguments of job i and the journal it writes.
	prepare func(i int) (args []string, journalPath string, err error)
	// units counts the units of work a finished job completed and checks
	// the job's own output.
	units func(o *outcome, j job, journalPath string) (int, error)
}

// loop runs fresh fic jobs back to back until the measurement window is
// spent (at least one job), records the end-to-end metrics, and returns
// the first job and its journal for the correctness checks. Times are
// divided by the host's slowdown during the job (see speed.go); peak
// memory is the highest any job reached, since a job's own peak moves
// with when its garbage collections happen to run.
func (e *env) loop(o *outcome, b batch) (first job, firstJournal string, err error) {
	var setup, rate, wall, cpu, rss, slow, rawRate, rawCPU []float64
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= e.window; i++ {
		began := time.Now()
		args, jpath, err := b.prepare(i)
		if err != nil {
			return job{}, "", err
		}
		m := e.speed.mark()
		j, err := runJob(e.dir, filepath.Join(e.bin, "fic"), args, b.ready)
		if err != nil {
			return job{}, "", err
		}
		f := e.speed.slowdown(m)
		o.op(nil)
		n, err := b.units(o, j, jpath)
		if err != nil {
			return job{}, "", err
		}
		perS := float64(n) / (j.wall - j.setup).Seconds()
		cpuUs := float64(j.cpu.Microseconds()) / float64(n)
		slow = append(slow, f)
		setup = append(setup, j.setup.Seconds()/f)
		rate = append(rate, perS*f)
		cpu = append(cpu, cpuUs/f)
		rawRate = append(rawRate, perS)
		rawCPU = append(rawCPU, cpuUs)
		wall = append(wall, ms(j.wall))
		rss = append(rss, j.rssMB)
		if i == 0 {
			first, firstJournal = j, jpath
		} else if err := os.Remove(jpath); err != nil {
			return job{}, "", err
		}
		last = time.Since(began)
	}
	o.set("setup_s", median(setup))
	o.set("work_per_s", median(rate))
	o.set("cpu_us_per_unit", median(cpu))
	o.set("peak_rss_mb", slices.Max(rss))
	o.note("bench.slowdown", median(slow), "ratio")
	o.note("unscaled_work_per_s", median(rawRate), "1/s")
	o.note("unscaled_cpu_us_per_unit", median(rawCPU), "us")
	o.note("jobs", float64(len(wall)), "count")
	o.note("job_wall_p50_ms", median(wall), "ms")
	return first, firstJournal, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ficArgs is the common tail of every campaign invocation: two workers,
// the job's seed and its journal.
func ficArgs(seed int64, journalFlag, journalPath string) []string {
	return []string{"-workers", "2", "-seed", strconv.FormatInt(seed, 10), journalFlag, journalPath}
}

// countRuns is the units function of the campaign workloads: the run
// records in the job's journal, which must be the whole campaign.
func countRuns(want int) func(*outcome, job, string) (int, error) {
	return func(o *outcome, j job, path string) (int, error) {
		log, err := journal.Load(path)
		if err != nil {
			return 0, err
		}
		o.check(len(log.Runs) == want, "%s holds %d run records, want %d", filepath.Base(path), len(log.Runs), want)
		return len(log.Runs), nil
	}
}

func runE1(e *env, o *outcome) error {
	g, obs := e.sc.e1Grid, e.sc.observeMs
	errs := inject.BuildE1()
	b := batch{
		ready: "fic: running",
		prepare: func(i int) ([]string, string, error) {
			p := filepath.Join(e.dir, fmt.Sprintf("job-%d.jsonl", i))
			args := append([]string{"-experiment", "e1", "-grid", itoa(g), "-observe", i64toa(obs), "-metrics"},
				ficArgs(ficSeed(e.seed, i), "-journal", p)...)
			return args, p, nil
		},
		units: countRuns(len(errs) * g * g * len(target.Versions())),
	}
	first, jpath, err := e.loop(o, b)
	if err != nil {
		return err
	}
	report, err := noteCampaignMetrics(o, first.stdout)
	if err != nil {
		return err
	}
	e.golden(o, "e1_campaign", resultLines(report))
	return e.checkRuns(o, jpath, errs, g, obs)
}

func runExhaustive(e *env, o *outcome) error {
	g, obs := e.sc.exhaustiveGrid, e.sc.observeMs
	errs := inject.BuildExhaustive()
	b := batch{
		ready: "fic: running",
		prepare: func(i int) ([]string, string, error) {
			p := filepath.Join(e.dir, fmt.Sprintf("job-%d.jsonl", i))
			args := append([]string{"-grid", itoa(g), "-observe", i64toa(obs), "-metrics"},
				ficArgs(ficSeed(e.seed, i), "-journal", p)...)
			return append(args, "exhaustive"), p, nil
		},
		units: countRuns(len(errs) * g * g),
	}
	first, jpath, err := e.loop(o, b)
	if err != nil {
		return err
	}
	report, err := noteCampaignMetrics(o, first.stdout)
	if err != nil {
		return err
	}
	e.golden(o, "exhaustive_census", resultLines(report))
	return e.checkRuns(o, jpath, errs, g, obs)
}

func runLattice(e *env, o *outcome) error {
	g, obs := e.sc.latticeGrid, e.sc.observeMs
	errs := inject.BuildE1()
	b := batch{
		ready: "fic: sweeping",
		prepare: func(i int) ([]string, string, error) {
			p := filepath.Join(e.dir, fmt.Sprintf("job-%d.jsonl", i))
			args := append([]string{"optimize", "-errors", "e1", "-grid", itoa(g), "-observe", i64toa(obs), "-format", "json"},
				ficArgs(ficSeed(e.seed, i), "-journal", p)...)
			return args, p, nil
		},
		units: func(o *outcome, j job, path string) (int, error) {
			log, err := journal.Load(path)
			if err != nil {
				return 0, err
			}
			want := len(errs) * g * g
			o.check(len(log.Probes) == want, "%s holds %d probes, want %d", filepath.Base(path), len(log.Probes), want)
			return len(log.Probes), nil
		},
	}
	first, jpath, err := e.loop(o, b)
	if err != nil {
		return err
	}
	scores, front, err := measuredScores(first.stdout)
	if err != nil {
		return err
	}
	o.check(front > 0, "lattice sweep emitted an empty Pareto front")
	e.golden(o, "lattice_sweep", scores)
	return e.checkProbes(o, jpath, errs, g, obs)
}

func runReplay(e *env, o *outcome) error {
	g, obs := e.sc.replayGrid, e.sc.replayObserveMs
	seed := ficSeed(e.seed, 0)
	census := filepath.Join(e.dir, "census.jsonl")
	prepStart := time.Now()
	args := append([]string{"-grid", itoa(g), "-observe", i64toa(obs)}, ficArgs(seed, "-journal", census)...)
	prep, err := runJob(e.dir, filepath.Join(e.bin, "fic"), append(args, "exhaustive"), "fic: running")
	if err != nil {
		return err
	}
	o.op(nil)
	o.note("bench.prep_s", time.Since(prepStart).Seconds(), "s")
	want := resultLines(prep.stdout)
	total := len(inject.BuildExhaustive()) * g * g
	b := batch{
		ready: "fic: running",
		prepare: func(i int) ([]string, string, error) {
			// A fresh copy per job: -resume appends to its journal.
			p := filepath.Join(e.dir, fmt.Sprintf("job-%d.jsonl", i))
			if err := copyFile(census, p); err != nil {
				return nil, "", err
			}
			args := append([]string{"-grid", itoa(g), "-observe", i64toa(obs), "-metrics"}, ficArgs(seed, "-resume", p)...)
			return append(args, "exhaustive"), p, nil
		},
		units: func(o *outcome, j job, _ string) (int, error) {
			report, blocks, err := splitMetrics(j.stdout)
			if err != nil {
				return 0, err
			}
			if len(blocks) != 1 {
				return 0, fmt.Errorf("replay printed %d metrics blocks, want 1", len(blocks))
			}
			m := blocks[0]
			o.check(bytes.Equal(resultLines(report), want), "replayed tables differ from the tables of the run that wrote the journal")
			o.check(m.Resumed == total && m.Runs == 0,
				"replay resumed %d runs and simulated %d, want %d and 0", m.Resumed, m.Runs, total)
			return m.Resumed, nil
		},
	}
	first, _, err := e.loop(o, b)
	if err != nil {
		return err
	}
	report, _, err := splitMetrics(first.stdout)
	if err != nil {
		return err
	}
	e.golden(o, "journal_replay", resultLines(report))
	return nil
}

// noteCampaignMetrics reads the -metrics block of a campaign job into
// diagnostics and returns the report in front of it.
func noteCampaignMetrics(o *outcome, stdout []byte) ([]byte, error) {
	report, ms, err := splitMetrics(stdout)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		var util float64
		stolen := 0
		for _, w := range m.Workers {
			util += w.Utilization / float64(len(m.Workers))
			stolen += w.Stolen
		}
		o.note("experiment.worker_utilization", util, "ratio")
		o.note("experiment.stolen_batches", float64(stolen), "count")
		if m.Errors > 0 {
			o.note("inject.prune_rate", m.PruneRate, fmt.Sprintf("of_%d", m.Errors))
			o.note("inject.memo_hit_rate", m.MemoHitRate, fmt.Sprintf("of_%d", m.Errors))
		}
	}
	return report, nil
}

// splitMetrics separates fic's report from the JSON block -metrics
// appends to it.
func splitMetrics(stdout []byte) ([]byte, []journal.Metrics, error) {
	i := bytes.LastIndex(stdout, []byte("\n[\n"))
	if i < 0 {
		return nil, nil, fmt.Errorf("fic printed no -metrics block")
	}
	var ms []journal.Metrics
	if err := json.Unmarshal(stdout[i+1:], &ms); err != nil {
		return nil, nil, fmt.Errorf("parsing the -metrics block: %w", err)
	}
	return stdout[:i+1], ms, nil
}

// resultLines drops the report's "Runner:" line, which describes how the
// runs were executed (simulated, pruned or replayed), not what they
// found; everything else is the campaign's result.
func resultLines(report []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("Runner:")) {
			out = append(out, line...)
		}
	}
	return out
}

// measuredScores returns the part of a -format json lattice report that
// the probes measured, without the calibrated CPU cost or the Pareto
// flags derived from it, and the front's size.
func measuredScores(stdout []byte) ([]byte, int, error) {
	var rep optimize.Report
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return nil, 0, fmt.Errorf("parsing the lattice report: %w", err)
	}
	for i := range rep.Scores {
		rep.Scores[i].CPUNsPerTick = 0
		rep.Scores[i].Pareto = false
	}
	b, err := json.Marshal(rep.Scores)
	return b, len(rep.Front), err
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden checks the SHA-256 of a result against the committed one. The
// hashes are recorded at the default seed and full scale on amd64 (other
// architectures may fuse floating-point operations differently), so the
// check applies only there; the hash is logged either way.
func (e *env) golden(o *outcome, name string, result []byte) {
	sum := sha256.Sum256(result)
	got := hex.EncodeToString(sum[:])
	e.logf("%s result sha256 %s", name, got)
	if e.seed != defaultSeed || e.sc != fullScale || runtime.GOARCH != "amd64" {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		o.op(fmt.Errorf("testdata/golden.json: %w", err))
		return
	}
	if w, ok := want[name]; ok {
		o.check(got == w, "%s result sha256 %s, committed %s", name, got, w)
	}
}

// sample draws n distinct indices below total from the run's seed.
func (e *env) sample(n, total int) []int {
	perm := rand.New(rand.NewSource(e.seed)).Perm(total)
	return perm[:min(n, total)]
}

// checkRuns re-executes a seeded sample of a campaign journal's records
// under the literal reference runner (inject.Run, every run simulated
// from time zero) and requires field-equal readouts.
func (e *env) checkRuns(o *outcome, path string, errs []inject.Error, grid int, obs int64) error {
	log, err := journal.Load(path)
	if err != nil {
		return err
	}
	cases := physics.Grid(grid)
	for _, i := range e.sample(e.sc.checks, len(log.Runs)) {
		r := log.Runs[i]
		res, err := inject.Run(inject.RunConfig{
			TestCase: cases[r.CaseIdx], Version: target.Version(r.Version),
			Error: &errs[r.ErrIdx], ObservationMs: obs, Seed: r.Seed,
		})
		if err != nil {
			o.op(err)
			continue
		}
		same := res.Detected == r.Detected && res.Failed == r.Failed && res.LatencyMs == r.LatencyMs &&
			len(res.ByTest) == len(r.ByTest)
		for id, n := range res.ByTest {
			same = same && r.ByTest[int(id)] == n
		}
		o.check(same, "journaled run %s case %d version %d differs from the literal re-run", r.ErrID, r.CaseIdx, r.Version)
	}
	return nil
}

// checkProbes re-executes a seeded sample of a sweep journal's probes
// with a literal probe (full window, from time zero) and requires equal
// profiles.
func (e *env) checkProbes(o *outcome, path string, errs []inject.Error, grid int, obs int64) error {
	log, err := journal.Load(path)
	if err != nil {
		return err
	}
	cases := physics.Grid(grid)
	for _, i := range e.sample(e.sc.checks, len(log.Probes)) {
		p := log.Probes[i]
		pr, err := inject.NewProbe(inject.ModeLiteral, inject.RunConfig{TestCase: cases[p.CaseIdx], ObservationMs: obs, Seed: p.Seed})
		if err != nil {
			o.op(err)
			continue
		}
		prof, err := pr.ProfileError(errs[p.ErrIdx])
		if err != nil {
			o.op(err)
			continue
		}
		same := prof.Failed == p.Failed && prof.FailTickMs == p.FailTickMs &&
			equalTimes(prof.Master[:], p.Master) && equalTimes(prof.Slave[:], p.Slave)
		o.check(same, "journaled probe %s case %d differs from the literal probe", p.ErrID, p.CaseIdx)
	}
	return nil
}

func equalTimes(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func itoa(n int) string     { return strconv.Itoa(n) }
func i64toa(n int64) string { return strconv.FormatInt(n, 10) }
