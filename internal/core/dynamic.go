package core

import "fmt"

// Dynamic constraints. The paper notes (§2.1) that its parameters are
// static "but dynamic constraints as in [4] and [14] may also be
// considered" — acceptance regions that follow the system state, e.g.
// a measured value tracking a set point. This file implements that
// extension:
//
//   - Monitor.UpdateContinuous replaces a mode's parameter set at run
//     time (validated against the signal's class), so a supervisory
//     layer can reshape the acceptance region;
//   - EnvelopeTracker derives a time-varying Pcont from a reference
//     signal: bounds are reference ± tolerance, rate limits follow the
//     reference's own slew plus a noise allowance.

// UpdateContinuous replaces the parameter set of one mode at run time.
// The new set must be a legal instantiation of the monitor's class
// (Table 1). The stored previous value s' is kept: the next test
// checks the transition under the new constraints.
func (m *Monitor) UpdateContinuous(mode int, p Continuous) error {
	if m.cont == nil {
		return fmt.Errorf("core: monitor %q is not continuous", m.name)
	}
	if _, ok := m.cont[mode]; !ok {
		return fmt.Errorf("%w %d (monitor %q)", ErrUnknownMode, mode, m.name)
	}
	if err := p.Validate(m.class); err != nil {
		return fmt.Errorf("core: monitor %q mode %d: %w", m.name, mode, err)
	}
	m.cont[mode] = p
	if mode == m.mode {
		m.resolve()
	}
	return nil
}

// EnvelopeTracker derives dynamic continuous constraints from a
// reference signal: the monitored signal must stay within
// [ref - Below, ref + Above] and change no faster than the reference
// changed plus the Slack allowance. A pressure measurement tracking
// its set point is the canonical use.
type EnvelopeTracker struct {
	// Above and Below bound the tolerated deviation from the
	// reference.
	Above int64
	Below int64
	// Slack is the rate allowance on top of the reference's own
	// change magnitude (sensor noise, control ripple).
	Slack int64
	// Floor and Ceil clamp the derived bounds to the physical range
	// of the signal.
	Floor int64
	Ceil  int64

	ref    int64
	primed bool
}

// Observe feeds the current reference value and returns the derived
// parameter set for the monitored signal. The first observation yields
// an envelope with no rate history (rates open to the full span plus
// slack).
func (e *EnvelopeTracker) Observe(ref int64) Continuous {
	delta := int64(0)
	if e.primed {
		delta = ref - e.ref
		if delta < 0 {
			delta = -delta
		}
	} else {
		delta = e.Ceil - e.Floor
	}
	e.ref = ref
	e.primed = true

	lo := ref - e.Below
	if lo < e.Floor {
		lo = e.Floor
	}
	hi := ref + e.Above
	if hi > e.Ceil {
		hi = e.Ceil
	}
	if hi <= lo {
		hi = lo + 1
	}
	rate := delta + e.Slack
	if rate < 1 {
		rate = 1
	}
	return Continuous{
		Min:  lo,
		Max:  hi,
		Incr: Rate{Min: 0, Max: rate},
		Decr: Rate{Min: 0, Max: rate},
	}
}

// Reset clears the reference history (new run).
func (e *EnvelopeTracker) Reset() { e.ref, e.primed = 0, false }
