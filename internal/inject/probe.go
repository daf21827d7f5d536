package inject

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/memory"
	"easig/internal/target"
)

// This file is the optimizer's measurement primitive: a dual-node
// variant of the fast-forward Engine that profiles one error into the
// per-node, per-assertion first-violation matrix from which
// internal/optimize derives the outcome of EVERY configuration of the
// lattice — all 2^7 assertion subsets × {master, slave, both} — with
// zero additional simulation (OPTIMIZER.md "Subset derivation").
//
// The campaign Engine wires a detection sink to the master node only,
// because the paper's Tables 7-9 score master builds. A configuration
// lattice that places assertions on the slave needs the slave's
// violation stream too: faults are injected into MASTER memory, and the
// slave can only see corruption that propagates over the set-point
// link, so its first-violation times are genuinely different data. The
// Probe therefore builds its system with BOTH nodes on the
// all-assertions build and a first-violation sink on each.

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

// firstSink records the first violation time per executable assertion;
// it is the probe's per-node detection sink.
type firstSink struct {
	sigIdx map[string]int
	first  [target.NumEAs]int64
}

func newFirstSink() *firstSink {
	s := &firstSink{sigIdx: make(map[string]int, target.NumEAs)}
	for k, name := range target.SignalNames() {
		s.sigIdx[name] = k
	}
	s.reset()
	return s
}

// Detect implements core.DetectionSink.
func (s *firstSink) Detect(v core.Violation) {
	k, ok := s.sigIdx[v.Signal]
	if !ok {
		return
	}
	if s.first[k] < 0 {
		s.first[k] = v.Time
	}
}

// reset rewinds the sink for the next error.
func (s *firstSink) reset() {
	for k := range s.first {
		s.first[k] = -1
	}
}

// Probe profiles the errors of one (test case, injection schedule) into
// EAProfiles. Like the Engine it restores a nominal-prefix snapshot per
// error and exits early once the post-stop quiet window has elapsed; in
// memo mode it additionally serves liveness-pruned faults from the
// nominal verdict and duplicate state deltas from an outcome memo. A
// literal-mode probe runs every error from time zero over the FULL
// observation window on a fresh dual-sink system — the reference
// semantics the probe equivalence tests pin the fast modes against.
//
// Probe runs are detection-only by construction (core.NoRecovery on
// both nodes): recovery acts only on violations, so the trajectory up
// to any FIRST violation — all a probe records — is recovery-invariant
// (OPTIMIZER.md "Recovery invariance"). A Probe is not safe for
// concurrent use; each sweep worker owns one.
type Probe struct {
	cfg    RunConfig
	policy Policy
	obs    int64
	mode   Mode

	sys           *target.System
	mem           *memory.Memory
	master, slave *firstSink
	base          target.SystemState

	// Memo-mode layers (nil otherwise), shared read-only from the
	// CaseProfile's full stage.
	live    *Liveness
	baseM   [][]byte
	nominal *nominalProfile
	memo    map[uint64]EAProfile

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
		policy, obs := cfg.schedule()
		return &Probe{cfg: cfg, policy: policy, obs: obs, mode: resolved}, nil
	}
	e := &profileEntry{}
	if err := e.computePrefix(cfg); err != nil {
		return nil, err
	}
	if resolved == ModeMemo {
		if err := e.computeFull(); err != nil {
			return nil, err
		}
	}
	return NewProbeFromProfile(resolved, e.p)
}

// NewProbeFromProfile builds a probe from a shared CaseProfile, the way
// the optimizer's sweep workers do: a fresh dual-sink system is built
// from the same configuration and fast-forwarded by restoring the
// shared snapshot (the same construction as NewEngineFromProfile — the
// snapshot captures complete system state including the slave node, so
// it restores cleanly onto a differently-sinked system). Memo mode
// requires the profile's full stage (liveness map + nominal profile).
//
// The profile's prefix must be detection-free on the master (checked
// here against the recorded prefix streams) and on the slave (the §3.4
// nominal gate proves fault-free runs detection-free on BOTH nodes —
// RunNominal wires both sinks — and the prefix is a fault-free run):
// only then is everything the probe's post-restore sinks record the
// complete violation history of the run.
func NewProbeFromProfile(mode Mode, p *CaseProfile) (*Probe, error) {
	resolved, err := resolveProbeMode(mode, p.cfg)
	if err != nil {
		return nil, err
	}
	policy, obs := p.cfg.schedule()
	if resolved == ModeLiteral {
		return &Probe{cfg: p.cfg, policy: policy, obs: obs, mode: resolved}, nil
	}
	for k := range p.prefixEA {
		if len(p.prefixEA[k].times) > 0 {
			return nil, fmt.Errorf("inject: probe needs a detection-free nominal prefix, but EA%d fired at %d ms before the first injection", k+1, p.prefixEA[k].times[0])
		}
	}
	pr := &Probe{
		cfg:    p.cfg,
		policy: policy,
		obs:    obs,
		mode:   resolved,
		master: newFirstSink(),
		slave:  newFirstSink(),
		base:   p.base,
	}
	sys, err := target.NewSystem(target.SystemConfig{
		Constants:    p.cfg.Constants,
		ForceTable:   p.cfg.ForceTable,
		TestCase:     p.cfg.TestCase,
		Seed:         p.cfg.Seed,
		Version:      target.VersionAll,
		SlaveVersion: target.VersionAll,
		Sink:         pr.master,
		SlaveSink:    pr.slave,
		Recovery:     core.NoRecovery{},
		Placement:    p.cfg.Placement,
	})
	if err != nil {
		return nil, fmt.Errorf("inject: building probe system: %w", err)
	}
	pr.sys = sys
	pr.mem = sys.Master().Memory()
	if err := sys.Restore(&pr.base); err != nil {
		return nil, fmt.Errorf("inject: fast-forwarding probe from shared profile: %w", err)
	}
	if resolved == ModeMemo {
		if p.live == nil || p.nominal == nil {
			return nil, fmt.Errorf("inject: memo probe needs the full profile stage (ProfileCache.Get with full=true)")
		}
		pr.live = p.live
		pr.baseM = p.baseMem
		pr.nominal = p.nominal
		pr.memo = make(map[uint64]EAProfile)
	}
	return pr, nil
}

// ProfileError profiles one error of the probe's test case into its
// dual-node EAProfile.
func (p *Probe) ProfileError(err Error) (EAProfile, error) {
	p.stats.Errors++
	if p.mode == ModeLiteral {
		prof, lerr := p.profileLiteral(err)
		if lerr != nil {
			return EAProfile{}, lerr
		}
		p.stats.Simulated++
		return prof, nil
	}

	if p.live != nil && !p.live.Live(err.Addr) {
		// Liveness-pruned: the fault is provably benign, the trajectory
		// is the nominal one, and the nominal run is detection-free on
		// both nodes (the §3.4 nominal gate) — so every first-violation
		// slot is -1 and the verdict is the nominal verdict.
		p.stats.Pruned++
		return p.nominalProfile(), nil
	}
	if p.memo != nil {
		h, herr := stateDeltaHash(p.mem.Regions(), p.baseM, err)
		if herr != nil {
			return EAProfile{}, herr
		}
		if prof, ok := p.memo[h]; ok {
			p.stats.MemoHits++
			return prof, nil
		}
		prof, serr := p.profileSnapshot(err)
		if serr != nil {
			return EAProfile{}, serr
		}
		p.stats.Simulated++
		p.memo[h] = prof
		return prof, nil
	}
	prof, serr := p.profileSnapshot(err)
	if serr != nil {
		return EAProfile{}, serr
	}
	p.stats.Simulated++
	return prof, nil
}

// nominalProfile is the EAProfile of a provably benign fault.
func (p *Probe) nominalProfile() EAProfile {
	prof := EAProfile{}
	for k := range prof.Master {
		prof.Master[k] = -1
		prof.Slave[k] = -1
	}
	if p.nominal != nil && p.nominal.failed {
		prof.Failed = true
		prof.FailTickMs = p.nominal.failure.TimeMs - 1
	}
	return prof
}

// profileSnapshot serves one error from the restored snapshot with the
// engine's injection loop and quiet-window exit.
func (p *Probe) profileSnapshot(err Error) (EAProfile, error) {
	if rerr := p.sys.Restore(&p.base); rerr != nil {
		return EAProfile{}, fmt.Errorf("inject: restoring probe snapshot: %w", rerr)
	}
	p.master.reset()
	p.slave.reset()
	for ms := p.policy.StartMs; ms < p.obs; ms++ {
		if (ms-p.policy.StartMs)%p.policy.PeriodMs == 0 {
			if aerr := err.Apply(p.mem); aerr != nil {
				return EAProfile{}, fmt.Errorf("inject: applying %v: %w", err, aerr)
			}
		}
		p.sys.StepMs()
		// The quiet-window exit is sound for the slave's streams for the
		// same reason it is for the master's: the window bounds the decay
		// of the shared actuation transient, and both nodes' assertions
		// observe the same physical signals (the probe equivalence suite
		// re-verifies this against full-window literal runs).
		if stopMs, stopped := p.sys.Env().Stopped(); stopped && ms-(stopMs-1) >= QuietWindowMs {
			break
		}
	}
	return readout(p.master, p.slave, p.sys), nil
}

// profileLiteral serves one error from a fresh system over the full
// observation window.
func (p *Probe) profileLiteral(err Error) (EAProfile, error) {
	master, slave := newFirstSink(), newFirstSink()
	sys, serr := target.NewSystem(target.SystemConfig{
		Constants:    p.cfg.Constants,
		ForceTable:   p.cfg.ForceTable,
		TestCase:     p.cfg.TestCase,
		Seed:         p.cfg.Seed,
		Version:      target.VersionAll,
		SlaveVersion: target.VersionAll,
		Sink:         master,
		SlaveSink:    slave,
		Recovery:     core.NoRecovery{},
		Placement:    p.cfg.Placement,
	})
	if serr != nil {
		return EAProfile{}, fmt.Errorf("inject: building literal probe system: %w", serr)
	}
	mem := sys.Master().Memory()
	for ms := int64(0); ms < p.obs; ms++ {
		if ms >= p.policy.StartMs && (ms-p.policy.StartMs)%p.policy.PeriodMs == 0 {
			if aerr := err.Apply(mem); aerr != nil {
				return EAProfile{}, fmt.Errorf("inject: applying %v: %w", err, aerr)
			}
		}
		sys.StepMs()
	}
	return readout(master, slave, sys), nil
}

// readout assembles the EAProfile from a run's sinks and environment.
func readout(master, slave *firstSink, sys *target.System) EAProfile {
	prof := EAProfile{Master: master.first, Slave: slave.first}
	if failure, failed := sys.Env().Failure(); failed {
		prof.Failed = true
		prof.FailTickMs = failure.TimeMs - 1
	}
	return prof
}

// Stats implements StatsReporter.
func (p *Probe) Stats() RunnerStats { return p.stats }
