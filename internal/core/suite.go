package core

import (
	"errors"
	"fmt"
	"sort"
)

// Suite manages the executable assertions of one application: a named
// registry of monitors, shared detection accounting, and an
// escalation policy implementing the paper's assessment stage ("an
// error has occurred and processes for assessment and recovery may be
// invoked", §1). A burst of violations within a time window raises an
// alarm exactly once per episode, so a supervisor can switch the
// system to a safe state instead of reacting to every single
// violation.
//
// Suite is not safe for concurrent use: one goroutine registers the
// monitors, drives Test and reads Stats. The stream service routes a
// stats request to the shard goroutine that owns the suite, which
// answers it between chunks.
type Suite struct {
	monitors map[string]*Monitor

	window    int64
	threshold int
	quiet     int64
	onAlarm   func(Alarm)

	recent    []int64
	inEpisode bool
	lastViol  int64
	alarms    int
}

// Alarm describes one escalation episode: the threshold was reached
// within the window.
type Alarm struct {
	// Time is the timestamp of the violation that crossed the
	// threshold.
	Time int64
	// Count is the number of violations inside the window at that
	// moment.
	Count int
	// Window is the configured window length.
	Window int64
}

// Errors returned by Suite operations.
var (
	// ErrDuplicateMonitor reports two monitors with one name.
	ErrDuplicateMonitor = errors.New("core: duplicate monitor name")
	// ErrUnknownMonitor reports a Test against an unregistered name.
	ErrUnknownMonitor = errors.New("core: unknown monitor")
)

// SuiteOption configures a Suite.
type SuiteOption func(*Suite)

// WithEscalation raises an alarm when threshold violations occur
// within window time units; after quiet time units without violations
// the episode ends and a new burst can alarm again.
func WithEscalation(threshold int, window, quiet int64, onAlarm func(Alarm)) SuiteOption {
	return func(s *Suite) {
		s.threshold = threshold
		s.window = window
		s.quiet = quiet
		s.onAlarm = onAlarm
	}
}

// NewSuite builds an empty suite.
func NewSuite(opts ...SuiteOption) *Suite {
	s := &Suite{monitors: make(map[string]*Monitor)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Add registers a monitor under its name.
func (s *Suite) Add(m *Monitor) error {
	if m == nil {
		return errors.New("core: nil monitor")
	}
	if _, dup := s.monitors[m.Name()]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateMonitor, m.Name())
	}
	s.monitors[m.Name()] = m
	return nil
}

// Test routes one observation to the named monitor and feeds the
// escalation window.
func (s *Suite) Test(now int64, name string, value int64) (int64, *Violation, error) {
	m, ok := s.monitors[name]
	if !ok {
		return value, nil, fmt.Errorf("%w: %q", ErrUnknownMonitor, name)
	}
	accepted, v := m.Test(now, value)
	if v != nil {
		s.recordViolation(now)
	}
	return accepted, v, nil
}

// recordViolation maintains the escalation window.
func (s *Suite) recordViolation(now int64) {
	if s.threshold <= 0 {
		return
	}
	if s.inEpisode && s.quiet > 0 && now-s.lastViol >= s.quiet {
		s.inEpisode = false
		s.recent = s.recent[:0]
	}
	s.lastViol = now
	s.recent = append(s.recent, now)
	// Drop violations that left the window.
	cut := 0
	for cut < len(s.recent) && s.recent[cut] <= now-s.window {
		cut++
	}
	s.recent = s.recent[cut:]
	if !s.inEpisode && len(s.recent) >= s.threshold {
		s.inEpisode = true
		s.alarms++
		if s.onAlarm != nil {
			s.onAlarm(Alarm{Time: now, Count: len(s.recent), Window: s.window})
		}
	}
}

// Alarms returns the number of raised escalation episodes.
func (s *Suite) Alarms() int { return s.alarms }

// MonitorStats is one monitor's accounting snapshot.
type MonitorStats struct {
	Name       string
	Class      Class
	Tests      uint64
	Violations uint64
}

// Stats returns per-monitor accounting, sorted by name for stable
// reports. Called by the goroutine that drives the suite, it is a
// consistent snapshot: every counter stands between the same two tests.
func (s *Suite) Stats() []MonitorStats {
	out := make([]MonitorStats, 0, len(s.monitors))
	for _, m := range s.monitors {
		out = append(out, MonitorStats{
			Name:       m.Name(),
			Class:      m.Class(),
			Tests:      m.Tests(),
			Violations: m.Violations(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
