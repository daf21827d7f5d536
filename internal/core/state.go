package core

// MonitorState is a value-type checkpoint of the Monitor state a caller
// of Check cannot see. The previous accepted value s' is deliberately
// absent: the experiment target holds it in the node's injectable RAM
// and captures it with the memory image, exactly as on the real system
// where the assertion state shares the corrupted memory. What remains
// here is the primed flag, the active mode and the test/violation
// counters. Like the monitor itself, State and RestoreState belong to
// the monitor's one owning goroutine.
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
		Tests:      m.tests,
		Violations: m.violations,
	}
}

// RestoreState rewinds the monitor to a previously captured state. The
// caller is responsible for restoring the s' it passes to Check to the
// matching point in time.
func (m *Monitor) RestoreState(s MonitorState) {
	m.primed = s.Primed
	if s.Mode != m.mode {
		m.mode = s.Mode
		m.resolve()
	}
	m.tests = s.Tests
	m.violations = s.Violations
}
