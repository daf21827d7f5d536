package inject

import (
	"fmt"
	"sort"

	"easig/internal/core"
	"easig/internal/memory"
	"easig/internal/physics"
	"easig/internal/target"
)

// QuietWindowMs is the post-stop settling window of the fast-forward
// engine: once the aircraft has stopped, the failure verdict is final
// (the §3.3 constraints are only checked while arresting) and the only
// readout that can still change is a first detection raised by the
// decaying actuation transient — the set point slews to zero within
// 85 ms, the valves drain with a 150 ms time constant and the velocity
// estimator window is 128 ms — or by the re-applied flip. The engine
// therefore keeps observing for QuietWindowMs after the later of the
// stop and the first injection, and then declares the outcome decided.
// The argument relies on the schedule: the window must see both phases
// of the re-applied flip (the bit flipped and flipped back) after the
// stop, so the engine takes the exit only when two injection periods
// fit in it. On the paper's schedule (first injection at 500 ms, 20 ms
// period) the aircraft always stops after the first injection and two
// periods fit many times over. Measured over full-observation sweeps of
// both error sets on that schedule, the latest first detection ever seen was
// 100 ms after the stop; the equivalence tests in internal/inject and
// internal/experiment re-verify the window against from-scratch runs,
// on that schedule and on late starts and long periods, on every
// change.
const QuietWindowMs = 1024

// plantReadout is the subset of plant state a from-scratch run reads
// out at its early-exit tick and that keeps evolving until the aircraft
// stops: travelled distance and the force/retardation peaks.
type plantReadout struct {
	x, maxForce, maxAccel float64
}

func readPlant(env *physics.Env) plantReadout {
	return plantReadout{x: env.Distance(), maxForce: env.PeakForce(), maxAccel: env.PeakRetardation()}
}

// endState is the plant verdict at the end of a profile run.
type endState struct {
	final   plantReadout
	stopMs  int64
	stopped bool
	failure physics.Failure
	failed  bool
}

func readEnd(env *physics.Env) endState {
	end := endState{final: readPlant(env)}
	end.stopMs, end.stopped = env.Stopped()
	end.failure, end.failed = env.Failure()
	return end
}

// eaStream records one executable assertion's violations on one node:
// the violation times and fired Table 2/3 constraints in time order,
// plus, on the master, the plant readout at the end of the
// first-violation tick (the candidate early-exit point of any version
// whose first detection this assertion is).
type eaStream struct {
	times []int64
	ids   []core.TestID

	readout     plantReadout
	haveReadout bool
}

// first is the stream's first violation time, -1 when it is empty.
func (s *eaStream) first() int64 {
	if len(s.times) == 0 {
		return -1
	}
	return s.times[0]
}

// copyFrom overwrites s with o, reusing s's buffers.
func (s *eaStream) copyFrom(o *eaStream) {
	s.times = append(s.times[:0], o.times...)
	s.ids = append(s.ids[:0], o.ids...)
	s.readout, s.haveReadout = o.readout, o.haveReadout
}

// runState is everything a profile run has recorded: both nodes'
// violation streams, demultiplexed per executable assertion, and the
// plant readout at the end of the tick that latched a failure. The
// slave's streams hold at most their first violation, the only part of
// them that is read (profileOf). An Engine keeps one at its snapshot
// (start) and one for the run in progress (cur); the nominal profile
// keeps the fault-free run's.
type runState struct {
	master, slave [target.NumEAs]eaStream

	fail     plantReadout
	haveFail bool
}

// copyFrom overwrites s with o, reusing s's stream buffers.
func (s *runState) copyFrom(o *runState) {
	for k := range s.master {
		s.master[k].copyFrom(&o.master[k])
		s.slave[k].copyFrom(&o.slave[k])
	}
	s.fail, s.haveFail = o.fail, o.haveFail
}

// eaIndex maps a monitored signal name to its assertion index.
var eaIndex = func() map[string]int {
	m := make(map[string]int, target.NumEAs)
	for k, name := range target.SignalNames() {
		m[name] = k
	}
	return m
}()

// recorder is one node's detection sink: it demultiplexes the node's
// violations into per-assertion streams, which is what lets one
// all-assertions run stand in for every version build and every
// optimizer configuration.
type recorder struct {
	ea *[target.NumEAs]eaStream
	// firstOnly drops every violation after a stream's first.
	firstOnly bool
}

// Detect implements core.DetectionSink.
func (r recorder) Detect(v core.Violation) {
	if k, ok := eaIndex[v.Signal]; ok {
		s := &r.ea[k]
		if r.firstOnly && len(s.times) > 0 {
			return
		}
		s.times = append(s.times, v.Time)
		s.ids = append(s.ids, v.Test)
	}
}

// newProfileSystem builds the system every profile run simulates: the
// all-assertions build on both nodes, detection-only, with each node's
// violations recorded into st. Faults are injected into master memory
// and the slave sees only what propagates over the set-point link, so
// its streams are genuinely different data that the optimizer's slave
// placements score.
func newProfileSystem(cfg RunConfig, st *runState) (*target.System, error) {
	return target.NewSystem(target.SystemConfig{
		Constants:    cfg.Constants,
		ForceTable:   cfg.ForceTable,
		TestCase:     cfg.TestCase,
		Seed:         cfg.Seed,
		Version:      target.VersionAll,
		SlaveVersion: target.VersionAll,
		Sink:         recorder{ea: &st.master},
		SlaveSink:    recorder{ea: &st.slave, firstOnly: true},
		Recovery:     core.NoRecovery{},
		Placement:    cfg.Placement,
	})
}

// Engine is the snapshot/fast-forward experiment controller: a
// DETOx-style optimisation of the campaigns that the paper's FIC3
// fault-injection computer drove with time-triggered injection (§3.2:
// one bit-flip at the injection time, repeated every 20 ms for
// intermittent errors). For one (test case, injection schedule) it
// simulates the deterministic nominal prefix up to the first injection
// once, captures the complete system state (target.SystemState), and
// then serves every error of the test case by restoring the snapshot,
// flipping the error's bit on the §3.2 schedule and profiling the run
// with all executable assertions enabled on both nodes. Because
// campaign runs are detection-only (core.NoRecovery leaves the
// offending value in place and the assertion state s' only feeds its
// own monitor), the plant and signal trajectories are identical across
// version builds, so the single profile run derives the exact
// from-scratch readouts of every version — detection flag,
// first-detection time, latency, per-constraint counts, injections and
// plant verdict — via RunError, and the optimizer's EAProfile via
// Probe.
//
// An Engine is not safe for concurrent use; each campaign worker owns
// one.
type Engine struct {
	cfg    RunConfig
	policy Policy
	obs    int64
	sys    *target.System
	mem    *memory.Memory

	// base is the system snapshot at the first injection time, start
	// what the run had recorded by then (shared read-only with the
	// CaseProfile the engine was built from), cur the run in progress.
	base  target.SystemState
	start *runState
	cur   runState

	// The full profile stage, nil unless the engine was built from it:
	// the fault-free full-window profile and the def/use liveness map.
	nominal *nominalProfile
	live    *Liveness

	stats RunnerStats

	// spareBT recycles ByTest maps donated by the caller's out slice
	// (see RunError): after a warm-up call the derive path allocates
	// nothing.
	spareBT []map[core.TestID]int
}

// nominalProfile is one full-observation, fault-free run of the
// engine's test case. A liveness-pruned (provably benign) fault's run
// is this run, so its per-version results and its probe readout are
// read off it with zero simulation.
type nominalProfile struct {
	run runState
	end endState
}

// NewEngine builds the engine for one test case and fast-forwards it to
// the injection time. cfg.Error, cfg.Version and cfg.FullObservation
// are ignored: the engine profiles with every assertion enabled and
// derives per-version results. The recovery policy must be detection-
// only (nil or core.NoRecovery) — with an active recovery the assertion
// builds change the signal trajectory and the runs of different
// versions genuinely diverge, so campaigns with recovery fall back to
// from-scratch runs.
func NewEngine(cfg RunConfig) (*Engine, error) {
	e, err := newEngineShell(cfg)
	if err != nil {
		return nil, err
	}

	// Nominal prefix: every error of the test case shares the
	// trajectory up to the first injection, so it is simulated once.
	for ms := int64(0); ms < min(e.policy.StartMs, e.obs); ms++ {
		e.step()
	}
	e.sys.Capture(&e.base)
	e.start = new(runState)
	e.start.copyFrom(&e.cur)
	return e, nil
}

// newEngineShell builds the engine struct and its profile system
// without fast-forwarding it: NewEngine simulates the nominal prefix
// itself, NewEngineFromProfile restores a shared snapshot instead.
func newEngineShell(cfg RunConfig) (*Engine, error) {
	if !detectionOnly(cfg.Recovery) {
		return nil, fmt.Errorf("inject: engine requires detection-only runs (core.NoRecovery), got %T", cfg.Recovery)
	}
	e := &Engine{cfg: cfg}
	e.policy, e.obs = cfg.schedule()
	sys, err := newProfileSystem(cfg, &e.cur)
	if err != nil {
		return nil, fmt.Errorf("inject: building engine system: %w", err)
	}
	e.sys = sys
	e.mem = sys.Master().Memory()
	return e, nil
}

// step advances the system one tick and captures the candidate
// early-exit readouts: the plant state at the end of any tick that
// produced a master assertion's first violation, and at the end of the
// tick that latched the failure.
func (e *Engine) step() {
	e.sys.StepMs()
	env := e.sys.Env()
	for k := range e.cur.master {
		s := &e.cur.master[k]
		if !s.haveReadout && len(s.times) > 0 {
			s.readout = readPlant(env)
			s.haveReadout = true
		}
	}
	if !e.cur.haveFail {
		if _, failed := env.Failure(); failed {
			e.cur.fail = readPlant(env)
			e.cur.haveFail = true
		}
	}
}

// simulate is the one fault-run kernel: from the restored snapshot it
// runs the §3.2 protocol to the end of the observation window, calling
// onInject (if non-nil) and flipping err's bit (if err is non-nil) at
// every tick the schedule makes due, then stepping the system. Unless
// full, or the period is too long for the quiet window to see both
// phases of the re-applied flip, it stops once QuietWindowMs have passed
// since the later of the stop and the first injection: the failure
// verdict is frozen by the stop, and after the window no assertion on
// either node raises a first violation anymore, so every version's
// result and every probe slot is decided (the probe equivalence suite
// re-verifies the slave's streams against full-window literal runs).
func (e *Engine) simulate(err *Error, full bool, onInject func()) error {
	quiet := !full && 2*e.policy.PeriodMs <= QuietWindowMs
	for ms := e.policy.StartMs; ms < e.obs; ms++ {
		if e.policy.due(ms) {
			if onInject != nil {
				onInject()
			}
			if err != nil {
				if aerr := err.Apply(e.mem); aerr != nil {
					// Format the value: the pointer itself in an
					// interface would move RunError's err parameter to
					// the heap and break the zero-alloc gate.
					return fmt.Errorf("inject: applying %v: %w", *err, aerr)
				}
			}
		}
		e.step()
		if stopMs, stopped := e.sys.Env().Stopped(); quiet && stopped && ms-max(stopMs-1, e.policy.StartMs) >= QuietWindowMs {
			break
		}
	}
	return nil
}

// RunError serves one error of the engine's test case: it restores the
// nominal snapshot, runs the time-triggered injection profile until the
// outcome is decided (every version's early-exit point has passed, or
// the post-stop quiet window has elapsed, or the observation window
// ends) and derives the from-scratch RunResult of every requested
// version into out. len(out) must equal len(versions).
//
// Passing out slots still holding a previous RunError's results grants
// the engine reuse of their ByTest maps (this is what keeps the
// steady-state error run allocation-free); callers that retain results
// elsewhere — e.g. the campaign collector — must hand the engine
// zeroed slots instead.
func (e *Engine) RunError(err Error, versions []target.Version, out []RunResult) error {
	if len(out) != len(versions) {
		return fmt.Errorf("inject: engine needs len(out)=%d, got %d", len(versions), len(out))
	}
	e.stats.Errors++
	e.stats.Simulated++
	for vi := range out {
		if m := out[vi].ByTest; m != nil {
			clear(m)
			e.spareBT = append(e.spareBT, m)
			out[vi].ByTest = nil
		}
	}
	if rerr := e.rewind(); rerr != nil {
		return rerr
	}
	if serr := e.simulate(&err, false, nil); serr != nil {
		return serr
	}
	end := readEnd(e.sys.Env())
	for vi, v := range versions {
		out[vi] = e.deriveFrom(&e.cur, &end, v)
	}
	return nil
}

// rewind restores the engine to its captured nominal snapshot at the
// first injection time, ready to profile the next error.
func (e *Engine) rewind() error {
	if err := e.sys.Restore(&e.base); err != nil {
		return fmt.Errorf("inject: restoring snapshot: %w", err)
	}
	e.cur.copyFrom(e.start)
	return nil
}

// Stats implements StatsReporter.
func (e *Engine) Stats() RunnerStats { return e.stats }

// ProfileNominal runs the engine's test case fault-free over the FULL
// observation window (no quiet-window exit) and caches its profile for
// DeriveNominal. While running, sink (if non-nil) is armed on the
// injectable memory and observes every software load and store, and
// onInject (if non-nil) is called at each tick boundary where the
// injection schedule would flip a bit — together these drive the
// Liveness pass. The engine is rewound to its snapshot afterwards, so
// RunError keeps working as before.
//
// The full window matters three times: the access trace must be a
// superset of any early-exiting faulty run's trace for the liveness
// argument, the final plant readout must match the full-window exit of
// a benign run's literal simulation, and a pruned probe reads both
// nodes' first violations off it, wherever in the window they fall.
func (e *Engine) ProfileNominal(sink memory.AccessSink, onInject func()) error {
	if err := e.rewind(); err != nil {
		return err
	}
	e.mem.SetAccessSink(sink)
	err := e.simulate(nil, true, onInject)
	e.mem.SetAccessSink(nil)
	if err != nil {
		return err
	}
	np := &nominalProfile{end: readEnd(e.sys.Env())}
	np.run.copyFrom(&e.cur)
	e.nominal = np
	return e.rewind()
}

// DeriveNominal derives the from-scratch RunResult of a version under a
// provably benign error: the trajectory is the nominal one, so the
// result is read off the cached nominal profile — including the
// injection count the literal loop would have performed up to its exit
// tick. ProfileNominal must have run first.
func (e *Engine) DeriveNominal(v target.Version) (RunResult, error) {
	if e.nominal == nil {
		return RunResult{}, fmt.Errorf("inject: DeriveNominal before ProfileNominal")
	}
	return e.deriveFrom(&e.nominal.run, &e.nominal.end, v), nil
}

// pruned reports whether the liveness map proves err benign: its byte
// is dead at every injection time, so its run is the nominal run. An
// engine without the full profile stage prunes nothing.
func (e *Engine) pruned(err Error) bool {
	return e.live != nil && !e.live.Live(err.Addr)
}

// deltaHash is the FNV-1a hash of err's post-injection state delta:
// which byte differs from the case's snapshot, what it now holds, and
// the mask the periodic schedule keeps toggling. Two errors with equal
// hashes corrupt the snapshot into the same state and re-corrupt it on
// the same schedule, so their runs are the same run; the MemoRunner and
// the Probe key their outcome memos on it.
func (e *Engine) deltaHash(err Error) (uint64, error) {
	base, berr := e.mem.ImageByteAt(&e.base.Master.Mem, err.Addr)
	if berr != nil {
		return 0, fmt.Errorf("inject: memo hash: %w", berr)
	}
	mask := byte(1) << err.Bit
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range [4]byte{byte(err.Addr >> 8), byte(err.Addr), base ^ mask, mask} {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}

// deriveFrom reconstructs the from-scratch RunResult of one version
// from a profile's master streams and end state (the run in progress
// after RunError, or the cached nominal profile). A from-scratch campaign run iterates ticks
// 0..obs-1, injects at the start of each due tick, and breaks at the
// end of the first tick E where a detection has been recorded and the
// plant has settled (stopped or failed); its readouts are the state at
// the end of tick E. The candidate exit ticks are all covered by
// recorded readouts: at or after the stop the plant is frozen, the
// failure tick is recorded, and any later first detection is the first
// violation tick of some assertion, which is recorded too.
func (e *Engine) deriveFrom(st *runState, end *endState, v target.Version) RunResult {
	const never = int64(1) << 62
	ea := &st.master
	stopIter, failIter := int64(-1), int64(-1)
	if end.stopped {
		stopIter = end.stopMs - 1
	}
	if end.failed {
		failIter = end.failure.TimeMs - 1
	}

	// First detection of this version: the earliest first violation
	// among its enabled assertions.
	first := never
	firstK := -1
	for k := range ea {
		s := &ea[k]
		if !v.Enables(k + 1) {
			continue
		}
		if len(s.times) > 0 && s.times[0] < first {
			first = s.times[0]
			firstK = k
		}
	}

	settle := never
	if stopIter >= 0 {
		settle = stopIter
	}
	if failIter >= 0 && failIter < settle {
		settle = failIter
	}

	// Exit tick of the from-scratch loop.
	exit := e.obs - 1
	if first != never && settle != never {
		if x := max(first, settle); x < exit {
			exit = x
		}
	}

	var res RunResult
	res.Detected = first != never
	if res.Detected {
		res.FirstDetectionMs = first
		res.LatencyMs = first - e.policy.StartMs
	}

	// Per-constraint counts up to and including the exit tick.
	for k := range ea {
		if !v.Enables(k + 1) {
			continue
		}
		s := &ea[k]
		n := sort.Search(len(s.times), func(i int) bool { return s.times[i] > exit })
		if n == 0 {
			continue
		}
		res.Detections += n
		if res.ByTest == nil {
			res.ByTest = e.takeBT()
		}
		for _, id := range s.ids[:n] {
			res.ByTest[id]++
		}
	}

	// Injections performed by the from-scratch loop up to the exit tick.
	if exit >= e.policy.StartMs {
		res.Injections = int((exit-e.policy.StartMs)/e.policy.PeriodMs) + 1
	}

	// Plant verdict and readouts at the exit tick.
	if failIter >= 0 && failIter <= exit {
		res.Failed = true
		res.Failure = end.failure
	}
	if stopIter >= 0 && stopIter <= exit {
		res.Stopped = true
		res.StoppedMs = end.stopMs
	}
	switch {
	case res.Stopped:
		// The plant freezes when the aircraft stops: distance and the
		// peaks at any tick >= the stop equal the final profile state.
		res.DistanceM = end.final.x
		res.PeakForceN = end.final.maxForce
		res.PeakRetardationMS2 = end.final.maxAccel
	case res.Failed && exit == failIter:
		res.DistanceM = st.fail.x
		res.PeakForceN = st.fail.maxForce
		res.PeakRetardationMS2 = st.fail.maxAccel
	case firstK >= 0 && exit == first:
		r := ea[firstK].readout
		res.DistanceM = r.x
		res.PeakForceN = r.maxForce
		res.PeakRetardationMS2 = r.maxAccel
	default:
		// No early exit: the run observed the full window and reads the
		// final state (which the profile also reached, because without a
		// stop there is no quiet-window exit).
		res.DistanceM = end.final.x
		res.PeakForceN = end.final.maxForce
		res.PeakRetardationMS2 = end.final.maxAccel
	}
	return res
}

// takeBT pops a recycled (already cleared) ByTest map donated through
// a previous RunError's out slice, or allocates a fresh one. Keeping
// empty maps out of results preserves the "ByTest is nil when no
// detection occurred" contract the literal runner has.
func (e *Engine) takeBT() map[core.TestID]int {
	if n := len(e.spareBT); n > 0 {
		m := e.spareBT[n-1]
		e.spareBT[n-1] = nil
		e.spareBT = e.spareBT[:n-1]
		return m
	}
	return make(map[core.TestID]int, 4)
}
