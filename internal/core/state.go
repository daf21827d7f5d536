package core

import "sync/atomic"

// MonitorState is a value-type checkpoint of a Monitor's mutable state.
// The previous accepted value s' is deliberately absent: in the
// experiment target it lives in the node's injectable RAM (WithPrevStore
// binds it there) and is captured with the memory image, exactly as on
// the real system where the assertion state shares the corrupted memory.
// What remains here is the primed flag, the active mode and the
// test/violation counters.
type MonitorState struct {
	// Primed reports whether a previous value s' has been established.
	Primed bool
	// Mode is the active parameter-set mode.
	Mode int
	// Tests and Violations are the lifetime counters.
	Tests      uint64
	Violations uint64
}

// State captures the monitor's mutable state (except s'; see
// MonitorState).
func (m *Monitor) State() MonitorState {
	return MonitorState{
		Primed:     m.primed,
		Mode:       m.mode,
		Tests:      atomic.LoadUint64(&m.tests),
		Violations: atomic.LoadUint64(&m.violations),
	}
}

// RestoreState rewinds the monitor to a previously captured state. The
// caller is responsible for restoring the memory that backs the
// monitor's PrevStore to the matching point in time.
func (m *Monitor) RestoreState(s MonitorState) {
	m.primed = s.Primed
	if s.Mode != m.mode {
		m.mode = s.Mode
		m.resolve()
	}
	atomic.StoreUint64(&m.tests, s.Tests)
	atomic.StoreUint64(&m.violations, s.Violations)
}
