package inject

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/target"
)

// Runner executes the errors of one (test case, injection schedule)
// and derives the RunResult of every requested software version. It is
// the single execution contract behind the campaign layer: the literal
// per-run simulation (the paper's §3.2 FIC3 protocol — one bit flip at
// the injection time, re-injected every 20 ms), the snapshot
// fast-forward Engine, and the memoizing/pruning MemoRunner all
// implement it, so internal/experiment composes runners instead of
// branching on flags.
//
// The modes are interchangeable by contract, not by convention: every
// mode must reproduce the §3.4 campaign tables (Tables 7-9) cell for
// cell. PERFORMANCE.md's "The proof obligations, as tests" section
// lists the proofs — TestEngineMatchesRun pins snapshot against
// literal field by field, TestMemoRunnerMatchesEngine adds the pruning
// and memo layers, and the campaign-level equivalence suites
// (TestE1EngineEquivalence, TestE2EngineEquivalence) re-verify all
// modes against each other on every change.
//
// len(out) must equal len(versions). Runners are not safe for
// concurrent use; each campaign worker owns one.
type Runner interface {
	RunError(err Error, versions []target.Version, out []RunResult) error
}

// RunnerStats counts how a Runner served its errors. Errors is the
// number of RunError calls; every error is either Simulated (at least
// one profile or per-version simulation executed), Pruned (classified
// benign by the def/use liveness pass, zero simulation), or a MemoHit
// (served from the outcome memo, zero simulation). For the literal
// runner Simulated counts individual version simulations, since each
// version build is a separate run there.
//
// These counters are the observable side of the pruning/memoization
// claims PERFORMANCE.md makes: the ~96% exhaustive-census prune rate
// and the repository benchmark's exhaustive_census workload (see
// benchmark/README.md) both read RunnerStats, and `fic -metrics`
// reports them per campaign. Pruned and MemoHits may only ever
// replace simulations whose outcomes are provably identical (see
// Liveness's soundness argument and the Engine.deltaHash contract) — a
// prune or memo hit that could change a Table 7-9 cell would be a
// correctness bug, not a tuning choice.
type RunnerStats struct {
	Errors    int
	Simulated int
	Pruned    int
	MemoHits  int
}

// Add folds o into s; campaign workers use it to aggregate per-batch
// runner stats.
func (s RunnerStats) Add(o RunnerStats) RunnerStats {
	s.Errors += o.Errors
	s.Simulated += o.Simulated
	s.Pruned += o.Pruned
	s.MemoHits += o.MemoHits
	return s
}

// PruneRate is the fraction of errors served without simulation by the
// liveness pass.
func (s RunnerStats) PruneRate() float64 {
	if s.Errors == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Errors)
}

// MemoHitRate is the fraction of errors served from the outcome memo.
func (s RunnerStats) MemoHitRate() float64 {
	if s.Errors == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(s.Errors)
}

// StatsReporter is implemented by runners that track RunnerStats.
type StatsReporter interface {
	Stats() RunnerStats
}

// Mode selects the execution strategy behind the Runner API.
type Mode int

const (
	// ModeAuto resolves to ModeSnapshot for detection-only campaigns
	// and to ModeLiteral when an active recovery policy makes version
	// builds diverge. It is the zero value, preserving the historical
	// default.
	ModeAuto Mode = iota
	// ModeLiteral simulates every (error, version) run from time zero
	// on a fresh system, as the paper's hardware FIC3 did.
	ModeLiteral
	// ModeSnapshot serves each test case from one fast-forwarded
	// checkpoint and derives all version builds from a single
	// all-assertions profile run per error (the PR 4 Engine).
	ModeSnapshot
	// ModeMemo wraps the snapshot engine with the def/use liveness
	// pruner and the post-injection-state outcome memo: faults in dead
	// or overwritten-before-read bytes are classified benign with zero
	// simulation, and repeat faults replay their memoized readouts.
	ModeMemo
)

// String names the mode as the -engine flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeLiteral:
		return "literal"
	case ModeSnapshot:
		return "snapshot"
	case ModeMemo:
		return "memo"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -engine flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto", "":
		return ModeAuto, nil
	case "literal":
		return ModeLiteral, nil
	case "snapshot":
		return ModeSnapshot, nil
	case "memo":
		return ModeMemo, nil
	default:
		return ModeAuto, fmt.Errorf("inject: unknown engine mode %q (want auto, literal, snapshot or memo)", s)
	}
}

// detectionOnly reports whether the recovery policy leaves corrupted
// state in place (nil or core.NoRecovery), the precondition of the
// snapshot and memo runners.
func detectionOnly(recovery core.RecoveryPolicy) bool {
	if recovery == nil {
		return true
	}
	_, ok := recovery.(core.NoRecovery)
	return ok
}

// Resolve maps ModeAuto to its concrete mode for the given recovery
// policy and rejects snapshot/memo execution of campaigns whose active
// recovery makes the version builds steer the plant differently.
func (m Mode) Resolve(recovery core.RecoveryPolicy) (Mode, error) {
	switch m {
	case ModeAuto:
		if detectionOnly(recovery) {
			return ModeSnapshot, nil
		}
		return ModeLiteral, nil
	case ModeLiteral:
		return ModeLiteral, nil
	case ModeSnapshot, ModeMemo:
		if !detectionOnly(recovery) {
			return m, fmt.Errorf("inject: %s engine requires detection-only runs (core.NoRecovery), got %T", m, recovery)
		}
		return m, nil
	default:
		return m, fmt.Errorf("inject: unknown engine mode %d", int(m))
	}
}

// NewRunner builds the mode's runner for one (test case, injection
// schedule) described by cfg. cfg.Error and cfg.Version are ignored —
// the error set and version builds arrive per RunError call.
func NewRunner(mode Mode, cfg RunConfig) (Runner, error) {
	resolved, err := mode.Resolve(cfg.Recovery)
	if err != nil {
		return nil, err
	}
	switch resolved {
	case ModeLiteral:
		return &literalRunner{cfg: cfg}, nil
	case ModeSnapshot:
		return NewEngine(cfg)
	case ModeMemo:
		return NewMemoRunner(cfg)
	default:
		return nil, fmt.Errorf("inject: unknown engine mode %d", int(resolved))
	}
}

// literalRunner is the Runner face of the pre-engine protocol: a fresh
// system per (error, version), simulated from time zero — exactly what
// the paper's FIC3 fault-injection computer drove.
type literalRunner struct {
	cfg   RunConfig
	stats RunnerStats
}

// RunError implements Runner.
func (r *literalRunner) RunError(err Error, versions []target.Version, out []RunResult) error {
	if len(out) != len(versions) {
		return fmt.Errorf("inject: literal runner needs len(out)=%d, got %d", len(versions), len(out))
	}
	r.stats.Errors++
	for i, v := range versions {
		cfg := r.cfg
		cfg.Version = v
		e := err
		cfg.Error = &e
		res, rerr := Run(cfg)
		if rerr != nil {
			return rerr
		}
		out[i] = res
		r.stats.Simulated++
	}
	return nil
}

// Stats implements StatsReporter.
func (r *literalRunner) Stats() RunnerStats { return r.stats }
