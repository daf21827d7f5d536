package core

// RecoveryPolicy decides the value a signal is set to after a violation
// ("measures can be taken to recover from the error, and the signal can
// be returned to a valid state", paper §2). The policy receives the
// violation and the active parameter set and returns the replacement
// value; Monitor stores the replacement as the new previous value s'
// and the target software writes it back to the signal.
type RecoveryPolicy interface {
	// RecoverContinuous returns the replacement value for a violated
	// continuous signal.
	RecoverContinuous(v Violation, p Continuous) int64
	// RecoverDiscrete returns the replacement value for a violated
	// discrete signal.
	RecoverDiscrete(v Violation, p Discrete) int64
}

// NoRecovery leaves the offending value in place: errors are detected
// and reported but the system keeps running with the corrupted value.
// Use it to measure raw error propagation.
type NoRecovery struct{}

var _ RecoveryPolicy = NoRecovery{}

// RecoverContinuous implements RecoveryPolicy by returning the
// offending value unchanged.
func (NoRecovery) RecoverContinuous(v Violation, _ Continuous) int64 { return v.Value }

// RecoverDiscrete implements RecoveryPolicy by returning the offending
// value unchanged.
func (NoRecovery) RecoverDiscrete(v Violation, _ Discrete) int64 { return v.Value }

// PreviousValue replaces the offending value with the last accepted
// value s'. This is the most common low-cost recovery for periodically
// sampled signals: one sample is dropped. When no previous value exists
// (violation on the first observation) continuous signals are clamped
// into [smin, smax] and discrete signals are set to the first domain
// value.
type PreviousValue struct{}

var _ RecoveryPolicy = PreviousValue{}

// RecoverContinuous implements RecoveryPolicy.
func (PreviousValue) RecoverContinuous(v Violation, p Continuous) int64 {
	if v.HasPrev {
		return v.Prev
	}
	return p.Clamp(v.Value)
}

// RecoverDiscrete implements RecoveryPolicy.
func (PreviousValue) RecoverDiscrete(v Violation, p Discrete) int64 {
	if v.HasPrev && p.contains(v.Prev) {
		return v.Prev
	}
	if len(p.Domain) > 0 {
		return p.Domain[0]
	}
	return v.Value
}

// ResetTo recovers every violation to one fixed safe value (a
// fail-safe state such as "pressure released" or a state machine's
// initial state).
type ResetTo struct {
	// Value is the safe value written on every recovery.
	Value int64
}

var _ RecoveryPolicy = ResetTo{}

// RecoverContinuous implements RecoveryPolicy.
func (r ResetTo) RecoverContinuous(Violation, Continuous) int64 { return r.Value }

// RecoverDiscrete implements RecoveryPolicy.
func (r ResetTo) RecoverDiscrete(Violation, Discrete) int64 { return r.Value }
