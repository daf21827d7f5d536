package optimize

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/physics"
	"easig/internal/target"
)

// Error-set names accepted by Spec.Errors.
const (
	// ErrorsE1 sweeps the paper's Table 6 single-bit signal errors
	// (112 errors).
	ErrorsE1 = "e1"
	// ErrorsE2 sweeps the sampled random RAM/stack error set.
	ErrorsE2 = "e2"
	// ErrorsExhaustive sweeps the full 11 400-position fault space.
	ErrorsExhaustive = "exhaustive"
)

// Spec is the serializable protocol of a lattice sweep: everything that
// determines which probes exist and what their outcomes are, mirroring
// experiment.Spec's role for campaigns. Two sweeps with equal Specs
// score identical probe matrices regardless of Options.
type Spec struct {
	// Errors names the swept error set: ErrorsE1, ErrorsE2 or
	// ErrorsExhaustive (default ErrorsE1).
	Errors string `json:"errors,omitempty"`
	// Grid is the test-case grid edge (default 5, the paper's 25 cases).
	Grid int `json:"grid,omitempty"`
	// ObservationMs is the per-probe observation window (default the
	// paper's 40 s). It must exceed Policy.StartMs.
	ObservationMs int64 `json:"observation_ms,omitempty"`
	// Policy is the injection schedule (default 20 ms period).
	Policy inject.Policy `json:"policy,omitempty"`
	// Seed derives all per-probe seeds (via experiment.RunSeed, the same
	// case-only derivation as a campaign's) and the E2 error sample.
	Seed int64 `json:"seed,omitempty"`
	// E2 sizes the random error set when Errors is ErrorsE2.
	E2 inject.E2Spec `json:"e2,omitempty"`
}

// Experiment is the sweep's journal experiment name: "OPT-" plus the
// error-set name, so an optimizer journal can never be replayed into a
// campaign (and vice versa).
func (s Spec) Experiment() string { return "OPT-" + s.Errors }

func (s Spec) withDefaults() Spec {
	if s.Errors == "" {
		s.Errors = ErrorsE1
	}
	if s.Grid <= 0 {
		s.Grid = 5
	}
	if s.ObservationMs <= 0 {
		s.ObservationMs = inject.DefaultObservationMs
	}
	if s.Policy.PeriodMs <= 0 {
		s.Policy = inject.DefaultPolicy()
	}
	if s.E2.RAM == 0 && s.E2.Stack == 0 {
		s.E2 = inject.DefaultE2Spec()
	}
	return s
}

// errorSet resolves the named error set.
func (s Spec) errorSet() ([]inject.Error, error) {
	switch s.Errors {
	case ErrorsE1:
		return inject.BuildE1(), nil
	case ErrorsE2:
		return inject.BuildE2(s.E2, s.Seed), nil
	case ErrorsExhaustive:
		return inject.BuildExhaustive(), nil
	default:
		return nil, fmt.Errorf("optimize: unknown error set %q (want %s, %s or %s)",
			s.Errors, ErrorsE1, ErrorsE2, ErrorsExhaustive)
	}
}

// DefaultBudgets are the failure-cost budgets Recommend is evaluated at
// when Options.Budgets is empty: failures free, and one unaverted
// failure costing 1 ms, 1 s and 1000 s of CPU time.
func DefaultBudgets() []time.Duration {
	return []time.Duration{0, time.Millisecond, time.Second, 1000 * time.Second}
}

// Options is the execution side of a sweep; none of it may change the
// scored probe matrix (the calibration changes the cost axis, which is
// why it is journaled and replayed on resume).
type Options struct {
	// Mode selects the probe engine: auto resolves to memo; literal is
	// the full-window reference.
	Mode inject.Mode
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Context, when non-nil, cancels an in-flight sweep.
	Context context.Context
	// Journal, when non-nil, receives the sweep header, the cost
	// calibration and one probe record per profiled (error, case).
	Journal *journal.Writer
	// Resume, when non-nil, replays journaled probes and the journaled
	// cost calibration, and dispatches only the missing probes. A
	// journal recorded under a different Spec or probe mode is rejected
	// (journal.Header.Match).
	Resume *journal.Log
	// Progress, when non-nil, is called after every profiled or
	// replayed probe.
	Progress func(journal.ProgressEvent)
	// Budgets are the failure-cost budgets to recommend under
	// (DefaultBudgets when empty).
	Budgets []time.Duration
	// Calibration tunes the cost measurement (Ticks/Reps; TestCase and
	// Seed are taken from the Spec's grid center).
	Calibration CalibrateOptions
	// Cost, when non-nil, replaces the wall-clock calibration with an
	// injected model — the hook deterministic tests use. It is
	// journaled like a measured model, so resume replays it.
	Cost *CostModel
}

// probeResult pairs a probe's coordinates with its profile.
type probeResult struct {
	errIdx  int
	errID   string
	caseIdx int
	prof    inject.EAProfile
}

// chunk is the sweep's work unit: up to probeChunkErrors errors of one
// test case, served by one worker from one dual-sink probe.
type chunk struct {
	caseIdx int
	tc      physics.TestCase
	from    int // first error index (errors [from, to))
	to      int
}

// probeChunkErrors matches the campaign's memo-mode batch size: most
// memo-mode probes are served by the liveness pruner in microseconds,
// so chunks must be large enough to amortize queue claims, and small
// enough that the exhaustive sweep load-balances within a case.
const probeChunkErrors = 64

// Report is a finished sweep: the full scored lattice, the Pareto
// front, and the per-budget recommendations. A Format renders it;
// Metrics is execution telemetry (wall-clock) and is excluded from
// every rendered format so that a resumed sweep's report is
// byte-identical to the uninterrupted one.
type Report struct {
	Experiment    string `json:"experiment"`
	Grid          int    `json:"grid"`
	Seed          int64  `json:"seed"`
	ObservationMs int64  `json:"observation_ms"`
	Errors        int    `json:"errors"`
	Probes        int    `json:"probes"`
	// Resumed counts journal-replayed probes. Like Metrics it is
	// excluded from rendered formats: how many probes were replayed is
	// execution history, and a resumed report must be byte-identical to
	// the uninterrupted one.
	Resumed     int       `json:"-"`
	LatticeSize int       `json:"lattice_size"`
	Cost        CostModel `json:"cost"`

	Scores          []Score          `json:"scores"`
	Front           []FrontMember    `json:"front"`
	Recommendations []Recommendation `json:"recommendations"`

	Metrics journal.Metrics `json:"-"`
}

// Run executes the lattice sweep: one dual-node probe per (error, test
// case), scored into all 2^7 × 3 × 2 configurations of Lattice().
func Run(spec Spec, opt Options) (*Report, error) {
	spec = spec.withDefaults()
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if len(opt.Budgets) == 0 {
		opt.Budgets = DefaultBudgets()
	}
	if spec.ObservationMs <= spec.Policy.StartMs {
		return nil, fmt.Errorf("optimize: observation window (%d ms) must exceed the injection start (%d ms)",
			spec.ObservationMs, spec.Policy.StartMs)
	}
	errs, err := spec.errorSet()
	if err != nil {
		return nil, err
	}
	mode := inject.ProbeMode(opt.Mode)
	exp := spec.Experiment()
	cases := physics.Grid(spec.Grid)
	total := len(errs) * len(cases)

	// The header binds the journal to the whole Spec (defaults applied)
	// and the probe mode. Marshal cannot fail: the Spec is plain data.
	protocol, _ := json.Marshal(spec)
	header := journal.Header{Experiment: exp, Total: total, Runner: mode.String(), Protocol: protocol}

	// Partition against the journal: replayed probe outcomes come
	// straight from the log, live chunks are dispatched. The resume
	// soundness checks mirror the campaign's — the header, then every
	// replayed record's seed against the re-derived one.
	outcomes := make([]probeOutcome, 0, total)
	var replayed map[journal.ProbeKey]journal.Probe
	cost, haveCost := CostModel{}, false
	if opt.Resume != nil {
		if err := opt.Resume.CheckResume(header); err != nil {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		replayed = opt.Resume.LookupProbes(exp)
		if rec, ok := opt.Resume.Cost(exp); ok {
			if cost, err = costFromRecord(rec); err != nil {
				return nil, err
			}
			haveCost = true
		}
	}
	var chunks []chunk
	resumed := 0
	for ci := range cases {
		pending := -1
		flush := func(upTo int) {
			if pending >= 0 {
				chunks = append(chunks, chunk{caseIdx: ci, tc: cases[ci], from: pending, to: upTo})
				pending = -1
			}
		}
		for ei := range errs {
			if rec, ok := replayed[journal.ProbeKey{ErrIdx: ei, CaseIdx: ci}]; ok {
				if want := experiment.RunSeed(spec.Seed, ci); rec.Seed != want {
					return nil, fmt.Errorf("optimize: journaled %s probe %s case %d has seed %d, want %d — journal is from a different sweep",
						exp, rec.ErrID, ci, rec.Seed, want)
				}
				if len(rec.Master) != target.NumEAs || len(rec.Slave) != target.NumEAs {
					return nil, fmt.Errorf("optimize: journaled %s probe %s case %d has %d/%d first-violation slots, want %d",
						exp, rec.ErrID, ci, len(rec.Master), len(rec.Slave), target.NumEAs)
				}
				outcomes = append(outcomes, outcomeFromProbe(rec))
				resumed++
				continue
			}
			if pending < 0 {
				pending = ei
			}
			if ei-pending+1 >= probeChunkErrors {
				flush(ei + 1)
			}
		}
		flush(len(errs))
	}

	// Cost model: replayed from the journal when resuming (byte-identity
	// requires scoring against the ORIGINAL measurement — calibration is
	// wall-clock, the sweep's one non-deterministic input), injected for
	// tests, measured otherwise. Whatever model is used is journaled.
	if !haveCost {
		if opt.Cost != nil {
			cost = *opt.Cost
		} else {
			cal := opt.Calibration
			cal.TestCase = cases[len(cases)/2]
			cal.Seed = spec.Seed
			if cost, err = Calibrate(cal); err != nil {
				return nil, err
			}
		}
	}
	if opt.Journal != nil {
		if err := opt.Journal.Header(header); err != nil {
			return nil, err
		}
		if err := opt.Journal.Cost(costRecord(exp, cost)); err != nil {
			return nil, err
		}
	}

	// Live chunks go through the campaign's grid dispatcher; the
	// collector keeps and journals every probe outcome.
	pool := experiment.Pool{
		Context:    opt.Context,
		Workers:    opt.Workers,
		Experiment: exp,
		Runner:     mode.String(),
		Resumed:    resumed,
		Total:      total,
		Progress:   opt.Progress,
	}
	cache := inject.NewProfileCache()
	newWorker := func() experiment.Worker[chunk, probeResult] {
		return &prober{spec: spec, mode: mode, errs: errs, cache: cache, byCase: make(map[int]*inject.Probe)}
	}
	metrics, err := experiment.Dispatch(pool, chunks, newWorker, func(r probeResult) error {
		outcomes = append(outcomes, outcomeFromEAProfile(r.prof))
		if opt.Journal == nil {
			return nil
		}
		return opt.Journal.Probe(journal.Probe{
			Experiment: exp,
			ErrIdx:     r.errIdx,
			ErrID:      r.errID,
			CaseIdx:    r.caseIdx,
			Seed:       experiment.RunSeed(spec.Seed, r.caseIdx),
			Failed:     r.prof.Failed,
			FailTickMs: r.prof.FailTickMs,
			Master:     append([]int64(nil), r.prof.Master[:]...),
			Slave:      append([]int64(nil), r.prof.Slave[:]...),
		})
	})
	if err != nil {
		if opt.Context != nil && err == opt.Context.Err() {
			err = fmt.Errorf("optimize: sweep interrupted: %w", err)
		}
		return nil, err
	}

	rep := &Report{
		Experiment:    exp,
		Grid:          spec.Grid,
		Seed:          spec.Seed,
		ObservationMs: spec.ObservationMs,
		Errors:        len(errs),
		Probes:        len(outcomes),
		Resumed:       resumed,
		LatticeSize:   len(Lattice()),
		Cost:          cost,
		Metrics:       metrics,
	}
	rep.Scores = scoreAll(Lattice(), outcomes, cost)
	markPareto(rep.Scores)
	rep.Front = Front(rep.Scores)
	// One tick is 1 ms of plant time, so the utility window is the
	// observation window's tick count.
	rep.Recommendations = Recommend(rep.Scores, spec.ObservationMs, opt.Budgets)
	return rep, nil
}

// prober is one pool worker of the sweep: one Probe per test case it
// has touched, each built from the sweep's shared inject.ProfileCache
// (per-case profiles are computed once, whichever worker asks first).
type prober struct {
	spec   Spec
	mode   inject.Mode
	errs   []inject.Error
	cache  *inject.ProfileCache
	byCase map[int]*inject.Probe
}

// Serve profiles the chunk's errors with the worker's probe for the
// chunk's test case, building the probe on first use.
func (p *prober) Serve(c chunk, emit func(probeResult) bool) error {
	pr := p.byCase[c.caseIdx]
	if pr == nil {
		cfg := inject.RunConfig{
			TestCase:      c.tc,
			Seed:          experiment.RunSeed(p.spec.Seed, c.caseIdx),
			ObservationMs: p.spec.ObservationMs,
			Policy:        p.spec.Policy,
		}
		var err error
		if p.mode == inject.ModeLiteral {
			pr, err = inject.NewProbe(p.mode, cfg)
		} else {
			var prof *inject.CaseProfile
			if prof, err = p.cache.Get(c.caseIdx, cfg, p.mode == inject.ModeMemo); err == nil {
				pr, err = inject.NewProbeFromProfile(p.mode, prof)
			}
		}
		if err != nil {
			return err
		}
		p.byCase[c.caseIdx] = pr
	}
	for ei := c.from; ei < c.to; ei++ {
		prof, err := pr.ProfileError(p.errs[ei])
		if err != nil {
			return err
		}
		if !emit(probeResult{errIdx: ei, errID: p.errs[ei].ID, caseIdx: c.caseIdx, prof: prof}) {
			return nil
		}
	}
	return nil
}

// Stats folds the worker's probe statistics.
func (p *prober) Stats() inject.RunnerStats {
	var st inject.RunnerStats
	for _, pr := range p.byCase {
		st = st.Add(pr.Stats())
	}
	return st
}

// outcomeFromEAProfile converts a live probe profile to scoring form.
func outcomeFromEAProfile(p inject.EAProfile) probeOutcome {
	return probeOutcome{master: p.Master, slave: p.Slave, failed: p.Failed, failTickMs: p.FailTickMs}
}
