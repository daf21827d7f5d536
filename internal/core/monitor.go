package core

import (
	"errors"
	"fmt"
	"maps"
)

// Monitor is a stateful executable-assertion tester for one signal: the
// paper's "generic test algorithms that are instantiated with
// parameters" (§6). It selects the parameter set of the current signal
// mode, runs the Table 2/Table 3 assertions on every observation,
// reports violations to the configured DetectionSink and applies the
// configured RecoveryPolicy.
//
// The previous accepted value s' is held by the caller of Check: the
// experiment target keeps it in a word of the node's injectable RAM,
// because on the real system the assertion state lives in the same
// memory the fault injector corrupts (a corrupted s' can cause false or
// missed detections — a genuine property of the mechanisms). Test is
// Check with s' kept in the monitor itself.
//
// Monitor is not safe for concurrent use, counters included: in the
// target system each monitor is owned by the module at its test
// location (paper Table 4), and in the stream service each monitor is
// owned by its stream's shard goroutine, which also answers the stats
// requests for it.
//
// Reuse contract (the stream service recycles monitor instances across
// reconnecting streams): Reset clears the previous-value state s' and
// the primed flag — the next observation is tested like a first one
// (bounds/domain only) — but deliberately keeps the active mode and
// the lifetime test/violation counters, so accounting spans sessions.
// SetMode keeps s': the first test after a mode switch checks the
// transition into the new mode against the new parameter set.
type Monitor struct {
	name  string
	class Class

	cont map[int]Continuous
	disc map[int]Discrete
	// pc or pd holds the active mode's parameter set and same the
	// verdict of Table 2's s = s' group under pc, all re-read by
	// resolve whenever the mode or its set changes, so Check needs no
	// map lookup and no per-test classification.
	pc   Continuous
	pd   Discrete
	same TestID
	seq  bool // the class is sequential: Check runs s ∈ T(s')

	mode     int
	prev     int64 // s' of Test; callers of Check hold their own
	primed   bool
	recovery RecoveryPolicy
	sink     DetectionSink

	tests      uint64
	violations uint64

	// scratch is the reused violation record handed out by Check.
	// Keeping it in the monitor instead of on the stack keeps the
	// per-tick hot path of the fault-injection campaigns free of heap
	// allocations even while an injected error violates the assertions
	// on every control cycle.
	scratch Violation
}

// Errors returned by the monitor constructors; match with errors.Is.
var (
	// ErrNoModes reports an empty parameter-set map.
	ErrNoModes = errors.New("core: monitor needs at least one mode parameter set")
	// ErrUnknownMode reports a mode without a configured parameter set.
	ErrUnknownMode = errors.New("core: no parameter set for mode")
)

// MonitorOption configures a Monitor at construction time.
type MonitorOption func(*Monitor)

// WithRecovery sets the recovery policy (default PreviousValue, the
// paper's "signal can be returned to a valid state").
func WithRecovery(p RecoveryPolicy) MonitorOption {
	return func(m *Monitor) { m.recovery = p }
}

// WithSink sets the detection sink. A nil sink discards violations
// (they are still returned from Test and counted).
func WithSink(s DetectionSink) MonitorOption {
	return func(m *Monitor) { m.sink = s }
}

// WithInitialMode selects the mode active before the first SetMode
// call (default 0).
func WithInitialMode(mode int) MonitorOption {
	return func(m *Monitor) { m.mode = mode }
}

// NewContinuous builds a monitor for a continuous signal with one
// parameter set per mode. Every set must be a legal instantiation of
// class per Table 1. The sets are copied, so later changes to the
// caller's map do not affect the monitor.
func NewContinuous(name string, class Class, modes map[int]Continuous, opts ...MonitorOption) (*Monitor, error) {
	if len(modes) == 0 {
		return nil, ErrNoModes
	}
	for mode, p := range modes {
		if err := p.Validate(class); err != nil {
			return nil, fmt.Errorf("core: monitor %q mode %d: %w", name, mode, err)
		}
	}
	m := &Monitor{
		name:     name,
		class:    class,
		cont:     maps.Clone(modes),
		recovery: PreviousValue{},
	}
	for _, opt := range opts {
		opt(m)
	}
	if _, ok := m.cont[m.mode]; !ok {
		return nil, fmt.Errorf("%w %d (monitor %q)", ErrUnknownMode, m.mode, name)
	}
	m.resolve()
	return m, nil
}

// NewContinuousSingle builds a single-mode continuous monitor.
func NewContinuousSingle(name string, class Class, p Continuous, opts ...MonitorOption) (*Monitor, error) {
	return NewContinuous(name, class, map[int]Continuous{0: p}, opts...)
}

// NewDiscrete builds a monitor for a discrete signal with one parameter
// set per mode. The sets are copied (and indexed, see Discrete.indexed), so
// later changes to the caller's map do not affect the monitor.
func NewDiscrete(name string, class Class, modes map[int]Discrete, opts ...MonitorOption) (*Monitor, error) {
	if len(modes) == 0 {
		return nil, ErrNoModes
	}
	store := make(map[int]Discrete, len(modes))
	for mode, p := range modes {
		if err := p.Validate(class); err != nil {
			return nil, fmt.Errorf("core: monitor %q mode %d: %w", name, mode, err)
		}
		store[mode] = p.indexed()
	}
	m := &Monitor{
		name:     name,
		class:    class,
		disc:     store,
		seq:      class.IsSequential(),
		recovery: PreviousValue{},
	}
	for _, opt := range opts {
		opt(m)
	}
	if _, ok := m.disc[m.mode]; !ok {
		return nil, fmt.Errorf("%w %d (monitor %q)", ErrUnknownMode, m.mode, name)
	}
	m.resolve()
	return m, nil
}

// NewDiscreteSingle builds a single-mode discrete monitor.
func NewDiscreteSingle(name string, class Class, p Discrete, opts ...MonitorOption) (*Monitor, error) {
	return NewDiscrete(name, class, map[int]Discrete{0: p}, opts...)
}

// Name returns the monitored signal's name.
func (m *Monitor) Name() string { return m.name }

// Class returns the signal classification.
func (m *Monitor) Class() Class { return m.class }

// Tests returns the number of tests (Check or Test calls) since
// construction.
func (m *Monitor) Tests() uint64 { return m.tests }

// Violations returns the number of failed tests since construction.
func (m *Monitor) Violations() uint64 { return m.violations }

// SetMode switches the active parameter set ("a signal with several
// modes has one parameter set for each mode", paper §2.1). Switching
// modes keeps the stored previous value: the first test in the new mode
// checks the transition into it against the new parameters.
func (m *Monitor) SetMode(mode int) error {
	if m.cont != nil {
		if _, ok := m.cont[mode]; !ok {
			return fmt.Errorf("%w %d (monitor %q)", ErrUnknownMode, mode, m.name)
		}
	} else if _, ok := m.disc[mode]; !ok {
		return fmt.Errorf("%w %d (monitor %q)", ErrUnknownMode, mode, m.name)
	}
	m.mode = mode
	m.resolve()
	return nil
}

// resolve re-reads the active mode's parameter set into pc or pd and
// compiles what Check derives from it: Table 2's verdict for s = s'.
// (A discrete set's index is built once, when the monitor stores it.)
// A mode without a set (RestoreState does not validate) resolves to the
// zero set, exactly as the per-test map lookup it replaces did.
func (m *Monitor) resolve() {
	if m.cont != nil {
		m.pc = m.cont[m.mode]
		m.same = sameVerdict(&m.pc)
	} else {
		m.pd = m.disc[m.mode]
	}
}

// Reset clears the previous-value state so the next observation primes
// the monitor again. Experiment runs call Reset between arrestments.
func (m *Monitor) Reset() {
	m.prev = 0
	m.primed = false
}

// Test subjects one observation of the signal to the executable
// assertions, with the previous accepted value s' kept in the monitor.
// now is the caller's timestamp (milliseconds in the target system). It
// returns the accepted value — the observation itself when the
// assertions pass, or the recovery policy's replacement after a
// violation — and the violation, if any. The returned Violation points
// into storage reused by the next test; copy the struct to retain it
// (DetectionSinks receive their own copy).
//
// The very first observation has no previous value s'; only the tests
// that are independent of s' run (bounds for continuous signals, domain
// membership for discrete ones).
func (m *Monitor) Test(now, s int64) (int64, *Violation) {
	accepted, v := m.Check(now, m.prev, s)
	m.prev = accepted
	return accepted, v
}

// Check is Test with s' held by the caller: it judges s against prev
// and returns what the caller must store as its next s' — s itself, or
// the recovery policy's replacement after a violation. Until the
// monitor is primed (its first Check, or the first after Reset) prev is
// not consulted.
func (m *Monitor) Check(now, prev, s int64) (int64, *Violation) {
	m.tests++
	var id TestID
	switch {
	case m.cont == nil:
		id = judgeDiscrete(&m.pd, m.seq && m.primed, prev, s)
	case m.primed:
		id = judgeContinuous(&m.pc, m.same, prev, s)
	default:
		id = judgeBounds(&m.pc, s)
	}
	if id != 0 {
		return m.violate(now, prev, s, id)
	}
	m.primed = true
	return s, nil
}

// violate is Check's violation path: count, report, recover. It stays
// out of line so that the passing path, taken on all but a handful of
// a campaign's tests, carries none of it.
//
//go:noinline
func (m *Monitor) violate(now, prev, s int64, id TestID) (int64, *Violation) {
	m.violations++
	m.scratch = Violation{
		Signal:  m.name,
		Test:    id,
		Value:   s,
		Prev:    prev,
		HasPrev: m.primed,
		Mode:    m.mode,
		Time:    now,
	}
	if m.sink != nil {
		m.sink.Detect(m.scratch)
	}
	var recovered int64
	if m.cont != nil {
		recovered = m.recovery.RecoverContinuous(m.scratch, m.pc)
	} else {
		recovered = m.recovery.RecoverDiscrete(m.scratch, m.pd)
	}
	m.primed = true
	return recovered, &m.scratch
}
