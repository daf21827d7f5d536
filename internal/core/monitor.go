package core

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
)

// PrevStore abstracts where a monitor keeps the previous accepted
// value s'. The default store is a plain struct field; the experiment
// target instead binds s' to a word of its injectable RAM, because on
// the real system the assertion state lives in the same memory the
// fault injector corrupts (a corrupted s' can cause false or missed
// detections — a genuine property of the mechanisms).
type PrevStore interface {
	// LoadPrev returns the stored previous value.
	LoadPrev() int64
	// StorePrev records the accepted (or recovered) value.
	StorePrev(int64)
}

// fieldStore is the default in-struct PrevStore.
type fieldStore struct{ v int64 }

func (s *fieldStore) LoadPrev() int64   { return s.v }
func (s *fieldStore) StorePrev(v int64) { s.v = v }

// Monitor is a stateful executable-assertion tester for one signal: the
// paper's "generic test algorithms that are instantiated with
// parameters" (§6). It remembers the previous accepted value s',
// selects the parameter set of the current signal mode, runs the
// Table 2/Table 3 assertions on every observation, reports violations
// to the configured DetectionSink and applies the configured
// RecoveryPolicy.
//
// Monitor is not safe for concurrent use; in the target system each
// monitor is owned by the module at its test location (paper Table 4),
// and in the stream service each monitor is owned by its stream's
// shard goroutine. The one concession to observers: the test and
// violation counters are maintained atomically, so Tests, Violations
// and Suite.Stats may be read concurrently while a single driving
// goroutine calls Test (the stream service's metrics endpoint reads
// them live).
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
	// pc or pd holds the active mode's parameter set, re-read by
	// resolve whenever the mode or its set changes, so Test needs no
	// map lookup.
	pc Continuous
	pd Discrete

	mode     int
	prev     PrevStore
	primed   bool
	recovery RecoveryPolicy
	sink     DetectionSink

	// tests and violations are read via atomic loads by concurrent
	// stats readers; only the driving goroutine writes them.
	tests      uint64
	violations uint64

	// scratch is the reused violation record handed out by Test. Keeping
	// it in the monitor instead of on the stack keeps the per-tick hot
	// path of the fault-injection campaigns free of heap allocations
	// even while an injected error violates the assertions on every
	// control cycle.
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

// WithPrevStore replaces the default in-struct storage of the previous
// value s'. A nil store keeps the default.
func WithPrevStore(s PrevStore) MonitorOption {
	return func(m *Monitor) {
		if s != nil {
			m.prev = s
		}
	}
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
		prev:     &fieldStore{},
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
		prev:     &fieldStore{},
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

// Tests returns the number of Test calls since construction. It is
// safe to call concurrently with the driving goroutine's Test calls.
func (m *Monitor) Tests() uint64 { return atomic.LoadUint64(&m.tests) }

// Violations returns the number of failed tests since construction. It
// is safe to call concurrently with the driving goroutine's Test calls.
func (m *Monitor) Violations() uint64 { return atomic.LoadUint64(&m.violations) }

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

// resolve re-reads the active mode's parameter set into pc or pd. A
// mode without a set (RestoreState does not validate) resolves to the
// zero set, exactly as the per-test map lookup it replaces did.
func (m *Monitor) resolve() {
	if m.cont != nil {
		m.pc = m.cont[m.mode]
	} else {
		m.pd = m.disc[m.mode]
	}
}

// Reset clears the previous-value state so the next observation primes
// the monitor again. Experiment runs call Reset between arrestments.
func (m *Monitor) Reset() {
	m.prev.StorePrev(0)
	m.primed = false
}

// Test subjects one observation of the signal to the executable
// assertions. now is the caller's timestamp (milliseconds in the target
// system). It returns the accepted value — the observation itself when
// the assertions pass, or the recovery policy's replacement after a
// violation — and the violation, if any. The returned Violation points
// into storage reused by the next Test call; copy the struct to retain
// it (DetectionSinks receive their own copy).
//
// The very first observation has no previous value s'; only the tests
// that are independent of s' run (bounds for continuous signals, domain
// membership for discrete ones).
func (m *Monitor) Test(now, s int64) (int64, *Violation) {
	atomic.AddUint64(&m.tests, 1)
	prev := m.prev.LoadPrev()
	var (
		id TestID
		ok bool
	)
	if m.cont != nil {
		if m.primed {
			id, ok = checkContinuous(&m.pc, prev, s)
		} else {
			id, ok = checkBounds(&m.pc, s)
		}
	} else {
		if m.primed {
			id, ok = checkDiscrete(&m.pd, m.class.IsSequential(), prev, s)
		} else {
			id, ok = checkDiscreteDomain(&m.pd, s)
		}
	}
	if ok {
		m.prev.StorePrev(s)
		m.primed = true
		return s, nil
	}

	atomic.AddUint64(&m.violations, 1)
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
	m.prev.StorePrev(recovered)
	m.primed = true
	return recovered, &m.scratch
}
