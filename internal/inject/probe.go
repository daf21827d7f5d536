package inject

import (
	"fmt"

	"easig/internal/target"
)

// This file is the optimizer's measurement primitive: a readout of the
// snapshot Engine that reduces one error's run to the per-node,
// per-assertion first-violation matrix from which internal/optimize
// derives the outcome of EVERY configuration of the lattice — all 2^7
// assertion subsets × {master, slave, both} — with zero additional
// simulation (OPTIMIZER.md "Subset derivation").
//
// The Engine's profile system records both nodes: faults are injected
// into MASTER memory, and the slave can only see corruption that
// propagates over the set-point link, so its streams are genuinely
// different data. The campaign's Tables 7-9 read the master streams
// through Engine.RunError; a probe reads the first element of every
// stream. Tables 7-8 and the lattice are thus two readouts of one kind
// of run, built and pruned in one place.

// EAProfile is one error's probe readout: for each node, each
// executable assertion's first-violation time (-1 when the assertion
// never fired), plus the plant's failure verdict. A configuration
// (mask, nodes) detects the error iff some enabled (node, assertion)
// slot is >= 0, and its first detection is the minimum such time —
// exactly the projection Engine.deriveFrom applies per Version, which
// is why one probe run scores the whole lattice.
type EAProfile struct {
	// Master[k] and Slave[k] are the first-violation times of EA k+1 on
	// that node, -1 when it never fired.
	Master [target.NumEAs]int64
	Slave  [target.NumEAs]int64
	// Failed reports a violated arrestment constraint; FailTickMs is the
	// tick index at which it latched (the engine's failIter clock, the
	// same clock as the violation times).
	Failed     bool
	FailTickMs int64
}

// Probe profiles the errors of one (test case, injection schedule) into
// EAProfiles. In snapshot and memo mode it is a readout of an Engine:
// each error is run by the Engine's kernel from the restored snapshot
// with the quiet-window exit. Memo mode adds the Engine's liveness
// pruning, under which a pruned fault reads the nominal run's first
// violations, and an outcome memo that replays the profile of a
// duplicate state delta. A literal-mode probe has no
// engine: it runs every error from time zero over the FULL observation
// window on a fresh system with its own loop — the reference semantics
// the probe equivalence tests pin the fast modes against.
//
// Probe runs are detection-only by construction (core.NoRecovery on
// both nodes): recovery acts only on violations, so the trajectory up
// to any FIRST violation — all a probe records — is recovery-invariant
// (OPTIMIZER.md "Recovery invariance"). A Probe is not safe for
// concurrent use; each sweep worker owns one.
type Probe struct {
	cfg  RunConfig
	eng  *Engine              // nil in literal mode
	memo map[uint64]EAProfile // nil unless memo mode

	stats RunnerStats
}

// ProbeMode maps ModeAuto to the probe sweep's default, memo — liveness
// pruning is what makes a full-lattice census over the exhaustive fault
// space affordable, and the probe equivalence tests pin memo-mode
// profiles byte-identical to literal ones. Exported so the optimizer
// stamps the resolved mode into its journal header (the resume mode
// check needs the same resolution on both sides).
func ProbeMode(mode Mode) Mode {
	if mode == ModeAuto {
		return ModeMemo
	}
	return mode
}

// resolveProbeMode applies ProbeMode and the probe's detection-only
// precondition.
func resolveProbeMode(mode Mode, cfg RunConfig) (Mode, error) {
	if !detectionOnly(cfg.Recovery) {
		return mode, fmt.Errorf("inject: probe requires detection-only runs (core.NoRecovery), got %T", cfg.Recovery)
	}
	return ProbeMode(mode), nil
}

// NewProbe builds a self-contained probe for one (test case, injection
// schedule) described by cfg. cfg.Error and cfg.Version are ignored:
// the probe always runs the all-assertions build on both nodes and the
// errors arrive per ProfileError call. Snapshot and memo modes compute
// their own CaseProfile; sweeps that share profiles across workers use
// NewProbeFromProfile instead.
func NewProbe(mode Mode, cfg RunConfig) (*Probe, error) {
	resolved, err := resolveProbeMode(mode, cfg)
	if err != nil {
		return nil, err
	}
	if resolved == ModeLiteral {
		return &Probe{cfg: cfg}, nil
	}
	p, err := newCaseProfile(cfg, resolved == ModeMemo)
	if err != nil {
		return nil, err
	}
	return NewProbeFromProfile(resolved, p)
}

// NewProbeFromProfile builds a probe from a shared CaseProfile, the way
// the optimizer's sweep workers do: its engine comes from
// NewEngineFromProfile and shares the profile's snapshot, start state
// and, in memo mode, its full stage (liveness map and nominal profile),
// which memo mode requires.
func NewProbeFromProfile(mode Mode, p *CaseProfile) (*Probe, error) {
	resolved, err := resolveProbeMode(mode, p.cfg)
	if err != nil {
		return nil, err
	}
	pr := &Probe{cfg: p.cfg}
	if resolved == ModeLiteral {
		return pr, nil
	}
	if resolved == ModeMemo {
		if p.live == nil {
			return nil, fmt.Errorf("inject: memo probe needs the full profile stage (ProfileCache.Get with full=true)")
		}
		pr.memo = make(map[uint64]EAProfile)
	}
	if pr.eng, err = NewEngineFromProfile(p); err != nil {
		return nil, err
	}
	return pr, nil
}

// ProfileError profiles one error of the probe's test case into its
// dual-node EAProfile.
func (p *Probe) ProfileError(err Error) (EAProfile, error) {
	p.stats.Errors++
	if p.memo == nil {
		prof, serr := p.simulate(err)
		if serr != nil {
			return EAProfile{}, serr
		}
		p.stats.Simulated++
		return prof, nil
	}
	e := p.eng
	if e.pruned(err) {
		// The fault is provably benign: its run is the nominal run.
		p.stats.Pruned++
		return profileOf(&e.nominal.run, &e.nominal.end), nil
	}
	h, herr := e.deltaHash(err)
	if herr != nil {
		return EAProfile{}, herr
	}
	if prof, ok := p.memo[h]; ok {
		p.stats.MemoHits++
		return prof, nil
	}
	prof, serr := p.simulate(err)
	if serr != nil {
		return EAProfile{}, serr
	}
	p.stats.Simulated++
	p.memo[h] = prof
	return prof, nil
}

// simulate runs one error on the probe's engine, or literally when the
// probe has none.
func (p *Probe) simulate(err Error) (EAProfile, error) {
	e := p.eng
	if e == nil {
		return profileLiteral(p.cfg, err)
	}
	if rerr := e.rewind(); rerr != nil {
		return EAProfile{}, rerr
	}
	if serr := e.simulate(&err, false, nil); serr != nil {
		return EAProfile{}, serr
	}
	end := readEnd(e.sys.Env())
	return profileOf(&e.cur, &end), nil
}

// profileLiteral is the reference the fast modes are pinned against: a
// fresh profile system simulated from 0 ms over the full observation
// window by its own loop, with no snapshot and no early exit.
func profileLiteral(cfg RunConfig, err Error) (EAProfile, error) {
	policy, obs := cfg.schedule()
	var st runState
	sys, serr := newProfileSystem(cfg, &st)
	if serr != nil {
		return EAProfile{}, fmt.Errorf("inject: building literal probe system: %w", serr)
	}
	mem := sys.Master().Memory()
	for ms := int64(0); ms < obs; ms++ {
		if policy.due(ms) {
			if aerr := err.Apply(mem); aerr != nil {
				return EAProfile{}, fmt.Errorf("inject: applying %v: %w", err, aerr)
			}
		}
		sys.StepMs()
	}
	end := readEnd(sys.Env())
	return profileOf(&st, &end), nil
}

// profileOf reads a run's EAProfile: the first element of every
// stream on both nodes, and the failure verdict.
func profileOf(st *runState, end *endState) EAProfile {
	var prof EAProfile
	for k := range prof.Master {
		prof.Master[k] = st.master[k].first()
		prof.Slave[k] = st.slave[k].first()
	}
	if end.failed {
		prof.Failed = true
		prof.FailTickMs = end.failure.TimeMs - 1
	}
	return prof
}

// Stats implements StatsReporter.
func (p *Probe) Stats() RunnerStats { return p.stats }
