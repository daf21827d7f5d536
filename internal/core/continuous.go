package core

import (
	"errors"
	"fmt"
)

// Rate bounds the magnitude of a signal change between two consecutive
// tests in one direction. Min and Max correspond to the paper's
// r_min and r_max for that direction; both are magnitudes and must be
// non-negative.
type Rate struct {
	Min int64
	Max int64
}

// zero reports whether the rate forbids any change in its direction
// (r_min = r_max = 0).
func (r Rate) zero() bool { return r.Min == 0 && r.Max == 0 }

// contains reports whether the non-negative change magnitude d lies in
// [Min, Max].
func (r Rate) contains(d int64) bool { return d >= r.Min && d <= r.Max }

// Continuous is the parameter set Pcont of the paper's §2.1: the seven
// parameters {smax, smin, rmin/rmax for increase, rmin/rmax for
// decrease, wrap-around} that instantiate the generic continuous-signal
// assertions of Table 2.
type Continuous struct {
	// Min and Max bound the valid value domain [smin, smax].
	Min int64
	Max int64
	// Incr bounds the per-test increase magnitude.
	Incr Rate
	// Decr bounds the per-test decrease magnitude.
	Decr Rate
	// Wrap allows the signal to continue "on the other side" after
	// reaching Max (for increasing signals) or Min (for decreasing
	// signals), as in the paper's Figure 2b.
	Wrap bool
}

// Errors returned by Continuous.Validate. They are wrapped with context
// naming the offending parameter values; match with errors.Is.
var (
	// ErrBadBounds reports smax <= smin (Table 1 requires smax > smin).
	ErrBadBounds = errors.New("core: smax must be greater than smin")
	// ErrNegativeRate reports a negative rate magnitude.
	ErrNegativeRate = errors.New("core: rate magnitudes must be non-negative")
	// ErrRateOrder reports rmax < rmin within one direction.
	ErrRateOrder = errors.New("core: rmax must be at least rmin")
	// ErrNotStatic reports parameters that do not describe a
	// static-rate monotonic signal.
	ErrNotStatic = errors.New("core: static monotonic signals need one direction with rmin=rmax>0 and the other with rmin=rmax=0")
	// ErrNotDynamic reports parameters that do not describe a
	// dynamic-rate monotonic signal.
	ErrNotDynamic = errors.New("core: dynamic monotonic signals need one direction with rmax>rmin>=0 and the other with rmin=rmax=0")
	// ErrNotRandom reports parameters that describe a monotonic signal
	// although the class is ContinuousRandom.
	ErrNotRandom = errors.New("core: random continuous signals must allow both increase and decrease")
	// ErrClassMismatch reports a class that is not continuous.
	ErrClassMismatch = errors.New("core: class is not a continuous class")
)

// Validate checks the parameter constraints of the paper's Table 1 for
// the given continuous class. It returns nil when the parameter set is
// a legal instantiation of that class.
func (p Continuous) Validate(class Class) error {
	if !class.IsContinuous() {
		return fmt.Errorf("%w: %v", ErrClassMismatch, class)
	}
	// Row "All": smax > smin; w is free.
	if p.Max <= p.Min {
		return fmt.Errorf("%w: smin=%d smax=%d", ErrBadBounds, p.Min, p.Max)
	}
	if p.Incr.Min < 0 || p.Incr.Max < 0 || p.Decr.Min < 0 || p.Decr.Max < 0 {
		return fmt.Errorf("%w: incr=%+v decr=%+v", ErrNegativeRate, p.Incr, p.Decr)
	}
	if p.Incr.Max < p.Incr.Min || p.Decr.Max < p.Decr.Min {
		return fmt.Errorf("%w: incr=%+v decr=%+v", ErrRateOrder, p.Incr, p.Decr)
	}
	switch class {
	case ContinuousMonotonicStatic:
		// (incr zero and decr fixed > 0) or (decr zero and incr fixed > 0).
		incOK := p.Incr.zero() && p.Decr.Min == p.Decr.Max && p.Decr.Min > 0
		decOK := p.Decr.zero() && p.Incr.Min == p.Incr.Max && p.Incr.Min > 0
		if !incOK && !decOK {
			return fmt.Errorf("%w: incr=%+v decr=%+v", ErrNotStatic, p.Incr, p.Decr)
		}
	case ContinuousMonotonicDynamic:
		// (incr zero and decr ranging) or (decr zero and incr ranging).
		incOK := p.Incr.zero() && p.Decr.Max > p.Decr.Min
		decOK := p.Decr.zero() && p.Incr.Max > p.Incr.Min
		if !incOK && !decOK {
			return fmt.Errorf("%w: incr=%+v decr=%+v", ErrNotDynamic, p.Incr, p.Decr)
		}
	case ContinuousRandom:
		// Both directions must be allowed; a direction whose rates are
		// both zero would make the signal monotonic.
		if p.Incr.zero() || p.Decr.zero() {
			return fmt.Errorf("%w: incr=%+v decr=%+v", ErrNotRandom, p.Incr, p.Decr)
		}
	}
	return nil
}

// Classify infers the most specific continuous leaf class that the
// parameter set legally instantiates, following Table 1. It returns
// ClassUnknown and an error when the parameters fit no class (e.g.
// smax <= smin).
func (p Continuous) Classify() (Class, error) {
	for _, c := range []Class{ContinuousMonotonicStatic, ContinuousMonotonicDynamic, ContinuousRandom} {
		if err := p.Validate(c); err == nil {
			return c, nil
		}
	}
	// Re-run random validation to surface the most informative error.
	if err := p.Validate(ContinuousRandom); err != nil {
		return ClassUnknown, err
	}
	return ClassUnknown, errors.New("core: parameters fit no continuous class")
}

// Clamp returns v limited to [Min, Max].
func (p Continuous) Clamp(v int64) int64 {
	if v < p.Min {
		return p.Min
	}
	if v > p.Max {
		return p.Max
	}
	return v
}

// String renders the parameter set in a compact single line.
func (p Continuous) String() string {
	w := "no-wrap"
	if p.Wrap {
		w = "wrap"
	}
	return fmt.Sprintf("Pcont{[%d,%d] incr[%d,%d] decr[%d,%d] %s}",
		p.Min, p.Max, p.Incr.Min, p.Incr.Max, p.Decr.Min, p.Decr.Max, w)
}
