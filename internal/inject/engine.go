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
// estimator window is 128 ms. The engine therefore keeps observing for
// QuietWindowMs after the stop and then declares the outcome decided.
// Measured over full-observation sweeps of both error sets, the latest
// first detection ever seen was 100 ms after the stop; the equivalence
// tests in internal/experiment re-verify the window against from-scratch
// runs on every change.
const QuietWindowMs = 1024

// plantReadout is the subset of plant state a from-scratch run reads
// out at its early-exit tick and that keeps evolving until the aircraft
// stops: travelled distance and the force/retardation peaks.
type plantReadout struct {
	x, maxForce, maxAccel float64
}

// eaStream records one executable assertion's violations during a
// profile run: the violation times and fired Table 2/3 constraints in
// time order, plus the plant readout at the end of the first-violation
// tick (the candidate early-exit point of any version whose first
// detection this assertion is).
type eaStream struct {
	times []int64
	ids   []core.TestID

	readout     plantReadout
	haveReadout bool
}

// recorder is the profile run's detection sink: it demultiplexes the
// master node's violation stream per executable assertion, which is
// what lets one all-assertions run stand in for every version build.
type recorder struct {
	sigIdx map[string]int
	ea     [target.NumEAs]eaStream
}

func newRecorder() *recorder {
	r := &recorder{sigIdx: make(map[string]int, target.NumEAs)}
	for k, name := range target.SignalNames() {
		r.sigIdx[name] = k
	}
	return r
}

// Detect implements core.DetectionSink.
func (r *recorder) Detect(v core.Violation) {
	k, ok := r.sigIdx[v.Signal]
	if !ok {
		return
	}
	s := &r.ea[k]
	s.times = append(s.times, v.Time)
	s.ids = append(s.ids, v.Test)
}

// truncate rewinds the recorder to the stream lengths and first-tick
// readouts captured with the nominal prefix, reusing the stream
// buffers.
func (r *recorder) truncate(lens *[target.NumEAs]int, readouts *[target.NumEAs]eaStream) {
	for k := range r.ea {
		s := &r.ea[k]
		s.times = s.times[:lens[k]]
		s.ids = s.ids[:lens[k]]
		s.readout = readouts[k].readout
		s.haveReadout = readouts[k].haveReadout
	}
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
// with all executable assertions enabled. Because campaign runs are detection-only (core.NoRecovery
// leaves the offending value in place and the assertion state s' only
// feeds its own monitor), the plant and signal trajectories are
// identical across version builds, so the single profile run derives
// the exact from-scratch readouts of every version — detection flag,
// first-detection time, latency, per-constraint counts, injections and
// plant verdict — via RunError.
//
// An Engine is not safe for concurrent use; each campaign worker owns
// one.
type Engine struct {
	cfg     RunConfig
	policy  Policy
	obs     int64
	sys     *target.System
	mem     *memory.Memory
	rec     *recorder
	base    target.SystemState
	baseLen [target.NumEAs]int
	baseEA  [target.NumEAs]eaStream

	failReadout     plantReadout
	haveFailReadout bool
	baseFailReadout plantReadout
	baseHaveFail    bool

	nominal *nominalProfile
	stats   RunnerStats

	// spareBT recycles ByTest maps donated by the caller's out slice
	// (see RunError): after a warm-up call the derive path allocates
	// nothing.
	spareBT []map[core.TestID]int
}

// nominalProfile is the readout of one full-observation, fault-free run
// of the engine's test case: the per-assertion violation streams, the
// plant verdict and the candidate early-exit readouts. The memo runner
// derives the outcome of every liveness-pruned (provably benign) fault
// from it with zero simulation.
type nominalProfile struct {
	ea    [target.NumEAs]eaStream
	fail  plantReadout
	final plantReadout

	stopMs  int64
	stopped bool
	failure physics.Failure
	failed  bool
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
	prefix := e.policy.StartMs
	if prefix > e.obs {
		prefix = e.obs
	}
	for ms := int64(0); ms < prefix; ms++ {
		e.step()
	}
	e.sys.Capture(&e.base)
	for k := range e.rec.ea {
		e.baseLen[k] = len(e.rec.ea[k].times)
		e.baseEA[k].readout = e.rec.ea[k].readout
		e.baseEA[k].haveReadout = e.rec.ea[k].haveReadout
	}
	e.baseFailReadout = e.failReadout
	e.baseHaveFail = e.haveFailReadout
	return e, nil
}

// newEngineShell builds the engine struct and its instrumented system
// without fast-forwarding it: NewEngine simulates the nominal prefix
// itself, NewEngineFromProfile restores a shared snapshot instead.
func newEngineShell(cfg RunConfig) (*Engine, error) {
	if cfg.Recovery != nil {
		if _, ok := cfg.Recovery.(core.NoRecovery); !ok {
			return nil, fmt.Errorf("inject: engine requires detection-only runs (core.NoRecovery), got %T", cfg.Recovery)
		}
	}
	e := &Engine{cfg: cfg, rec: newRecorder()}
	e.policy, e.obs = cfg.schedule()
	sys, err := target.NewSystem(target.SystemConfig{
		Constants:  cfg.Constants,
		ForceTable: cfg.ForceTable,
		TestCase:   cfg.TestCase,
		Seed:       cfg.Seed,
		Version:    target.VersionAll,
		Sink:       e.rec,
		Recovery:   core.NoRecovery{},
		Placement:  cfg.Placement,
	})
	if err != nil {
		return nil, fmt.Errorf("inject: building engine system: %w", err)
	}
	e.sys = sys
	e.mem = sys.Master().Memory()
	return e, nil
}

// step advances the system one tick and captures the candidate
// early-exit readouts: the plant state at the end of any tick that
// produced an assertion's first violation, and at the end of the tick
// that latched the failure.
func (e *Engine) step() {
	e.sys.StepMs()
	env := e.sys.Env()
	for k := range e.rec.ea {
		s := &e.rec.ea[k]
		if !s.haveReadout && len(s.times) > 0 {
			s.readout = plantReadout{x: env.Distance(), maxForce: env.PeakForce(), maxAccel: env.PeakRetardation()}
			s.haveReadout = true
		}
	}
	if !e.haveFailReadout {
		if _, failed := env.Failure(); failed {
			e.failReadout = plantReadout{x: env.Distance(), maxForce: env.PeakForce(), maxAccel: env.PeakRetardation()}
			e.haveFailReadout = true
		}
	}
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

	for ms := e.policy.StartMs; ms < e.obs; ms++ {
		if (ms-e.policy.StartMs)%e.policy.PeriodMs == 0 {
			if aerr := err.Apply(e.mem); aerr != nil {
				// err is passed by value: taking its address here would
				// force the parameter to the heap on every (non-failing)
				// call and break the zero-alloc gate.
				return fmt.Errorf("inject: applying %v: %w", err, aerr)
			}
		}
		e.step()
		// Quiet-window exit: the failure verdict is frozen by the stop,
		// and after QuietWindowMs of post-stop settling no assertion
		// fires a first violation anymore — the outcome of every
		// version is decided.
		if stopMs, stopped := e.sys.Env().Stopped(); stopped && ms-(stopMs-1) >= QuietWindowMs {
			break
		}
	}

	env := e.sys.Env()
	final := plantReadout{x: env.Distance(), maxForce: env.PeakForce(), maxAccel: env.PeakRetardation()}
	stopMs, stopped := env.Stopped()
	failure, failed := env.Failure()
	stopIter, failIter := int64(-1), int64(-1)
	if stopped {
		stopIter = stopMs - 1
	}
	if failed {
		failIter = failure.TimeMs - 1
	}

	for vi, v := range versions {
		out[vi] = e.deriveFrom(&e.rec.ea, e.failReadout, v, stopIter, failIter, stopMs, failure, final)
	}
	return nil
}

// rewind restores the engine to its captured nominal snapshot at the
// first injection time, ready to profile the next error.
func (e *Engine) rewind() error {
	if err := e.sys.Restore(&e.base); err != nil {
		return fmt.Errorf("inject: restoring snapshot: %w", err)
	}
	e.rec.truncate(&e.baseLen, &e.baseEA)
	e.failReadout = e.baseFailReadout
	e.haveFailReadout = e.baseHaveFail
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
// The full window matters twice: the access trace must be a superset
// of any early-exiting faulty run's trace for the liveness argument,
// and the final plant readout must match the full-window exit of a
// benign run's literal simulation.
func (e *Engine) ProfileNominal(sink memory.AccessSink, onInject func()) error {
	if err := e.rewind(); err != nil {
		return err
	}
	e.mem.SetAccessSink(sink)
	for ms := e.policy.StartMs; ms < e.obs; ms++ {
		if onInject != nil && (ms-e.policy.StartMs)%e.policy.PeriodMs == 0 {
			onInject()
		}
		e.step()
	}
	e.mem.SetAccessSink(nil)

	np := &nominalProfile{fail: e.failReadout}
	for k := range e.rec.ea {
		s := &e.rec.ea[k]
		np.ea[k] = eaStream{
			times:       append([]int64(nil), s.times...),
			ids:         append([]core.TestID(nil), s.ids...),
			readout:     s.readout,
			haveReadout: s.haveReadout,
		}
	}
	env := e.sys.Env()
	np.final = plantReadout{x: env.Distance(), maxForce: env.PeakForce(), maxAccel: env.PeakRetardation()}
	np.stopMs, np.stopped = env.Stopped()
	np.failure, np.failed = env.Failure()
	e.nominal = np
	return e.rewind()
}

// DeriveNominal derives the from-scratch RunResult of a version under a
// provably benign error: the trajectory is the nominal one, so the
// result is read off the cached nominal profile — including the
// injection count the literal loop would have performed up to its exit
// tick. ProfileNominal must have run first.
func (e *Engine) DeriveNominal(v target.Version) (RunResult, error) {
	np := e.nominal
	if np == nil {
		return RunResult{}, fmt.Errorf("inject: DeriveNominal before ProfileNominal")
	}
	stopIter, failIter := int64(-1), int64(-1)
	if np.stopped {
		stopIter = np.stopMs - 1
	}
	if np.failed {
		failIter = np.failure.TimeMs - 1
	}
	return e.deriveFrom(&np.ea, np.fail, v, stopIter, failIter, np.stopMs, np.failure, np.final), nil
}

// deriveFrom reconstructs the from-scratch RunResult of one version
// from a profile (the live recorder's streams after RunError, or the
// cached nominal profile). A from-scratch campaign run iterates ticks
// 0..obs-1, injects at the start of each due tick, and breaks at the
// end of the first tick E where a detection has been recorded and the
// plant has settled (stopped or failed); its readouts are the state at
// the end of tick E. The candidate exit ticks are all covered by
// recorded readouts: at or after the stop the plant is frozen, the
// failure tick is recorded, and any later first detection is the first
// violation tick of some assertion, which is recorded too.
func (e *Engine) deriveFrom(ea *[target.NumEAs]eaStream, failReadout plantReadout, v target.Version, stopIter, failIter, stopMs int64, failure physics.Failure, final plantReadout) RunResult {
	const never = int64(1) << 62

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
		if x := max64(first, settle); x < exit {
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
		res.Failure = failure
	}
	if stopIter >= 0 && stopIter <= exit {
		res.Stopped = true
		res.StoppedMs = stopMs
	}
	switch {
	case res.Stopped:
		// The plant freezes when the aircraft stops: distance and the
		// peaks at any tick >= the stop equal the final profile state.
		res.DistanceM = final.x
		res.PeakForceN = final.maxForce
		res.PeakRetardationMS2 = final.maxAccel
	case res.Failed && exit == failIter:
		res.DistanceM = failReadout.x
		res.PeakForceN = failReadout.maxForce
		res.PeakRetardationMS2 = failReadout.maxAccel
	case firstK >= 0 && exit == first:
		r := ea[firstK].readout
		res.DistanceM = r.x
		res.PeakForceN = r.maxForce
		res.PeakRetardationMS2 = r.maxAccel
	default:
		// No early exit: the run observed the full window and reads the
		// final state (which the profile also reached, because without a
		// stop there is no quiet-window exit).
		res.DistanceM = final.x
		res.PeakForceN = final.maxForce
		res.PeakRetardationMS2 = final.maxAccel
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
