package core

import (
	"errors"
	"math"
)

// Calibration derives parameter-set proposals from fault-free traces.
// The paper notes (§2.2) that assertion parameters "may be calibrated
// using fault injection experiments"; the usual workflow is the dual:
// run the fault-free test-case grid, record every monitored signal, and
// widen the observed envelope by a safety margin so that nominal runs
// never trigger a detection (§3.4 requires exactly that of all 25 test
// cases).

// CalibrationOptions widens the observed envelope of a trace before it
// is proposed as a parameter set.
type CalibrationOptions struct {
	// BoundMargin widens [min, max] by this fraction of the observed
	// span on each side (0.1 adds 10 % headroom above and below).
	BoundMargin float64
	// RateMargin scales the observed maximum change rates up by this
	// fraction; observed minimum rates are scaled down.
	RateMargin float64
	// Wrap marks the proposed parameter set as wrap-around capable.
	// Wrap-around cannot be inferred from a trace: a genuine wrap and a
	// large jump are indistinguishable without knowing the word width.
	Wrap bool
}

// ErrNoObservations reports a calibrator asked for a proposal before
// any trace data was observed.
var ErrNoObservations = errors.New("core: calibrator has no observations")

// ContinuousCalibrator accumulates the envelope of one continuous
// signal across any number of fault-free runs. The zero value is ready
// to use; call EndRun between runs so inter-run jumps (e.g. counter
// resets) do not pollute the rate envelope.
type ContinuousCalibrator struct {
	min, max int64
	seen     bool

	prev   int64
	inRun  bool
	incMin int64
	incMax int64
	decMin int64
	decMax int64
	incAny bool
	decAny bool
	eqAny  bool
}

// Observe feeds one sample in trace order.
func (c *ContinuousCalibrator) Observe(s int64) {
	if !c.seen || s < c.min {
		c.min = s
	}
	if !c.seen || s > c.max {
		c.max = s
	}
	c.seen = true
	if c.inRun {
		switch {
		case s > c.prev:
			d := s - c.prev
			if !c.incAny || d < c.incMin {
				c.incMin = d
			}
			if !c.incAny || d > c.incMax {
				c.incMax = d
			}
			c.incAny = true
		case s < c.prev:
			d := c.prev - s
			if !c.decAny || d < c.decMin {
				c.decMin = d
			}
			if !c.decAny || d > c.decMax {
				c.decMax = d
			}
			c.decAny = true
		default:
			c.eqAny = true
		}
	}
	c.prev = s
	c.inRun = true
}

// EndRun marks the end of one run; the next Observe starts a new rate
// baseline.
func (c *ContinuousCalibrator) EndRun() { c.inRun = false }

// Propose returns a parameter set that accepts every observed sample
// sequence, widened by the option margins, together with the inferred
// class. Monotonic traces yield monotonic classes; anything else yields
// ContinuousRandom with both directions opened at least one unit so the
// proposal validates.
func (c *ContinuousCalibrator) Propose(opts CalibrationOptions) (Continuous, Class, error) {
	if !c.seen {
		return Continuous{}, ClassUnknown, ErrNoObservations
	}
	span := c.max - c.min
	if span == 0 {
		span = 1
	}
	pad := int64(math.Ceil(float64(span) * opts.BoundMargin))
	p := Continuous{
		Min:  c.min - pad,
		Max:  c.max + pad,
		Wrap: opts.Wrap,
	}
	if p.Max <= p.Min {
		// A constant trace with zero margin: open the domain by one
		// unit so the proposal is a legal Table 1 instantiation.
		p.Max = p.Min + 1
	}
	up := func(r int64) int64 { return int64(math.Ceil(float64(r) * (1 + opts.RateMargin))) }
	down := func(r int64) int64 {
		d := int64(math.Floor(float64(r) * (1 - opts.RateMargin)))
		if d < 0 {
			return 0
		}
		return d
	}
	if c.incAny {
		p.Incr = Rate{Min: down(c.incMin), Max: up(c.incMax)}
	}
	if c.decAny {
		p.Decr = Rate{Min: down(c.decMin), Max: up(c.decMax)}
	}
	// Signals that ever stayed put need the zero-change escape of
	// Table 2 tests 3c/4c/5c: a direction minimum of zero.
	if c.eqAny {
		if c.incAny && !c.decAny {
			p.Incr.Min = 0
		}
		if c.decAny && !c.incAny {
			p.Decr.Min = 0
		}
		if c.incAny && c.decAny && p.Incr.Min > 0 && p.Decr.Min > 0 {
			p.Incr.Min = 0
		}
	}
	switch {
	case c.incAny && c.decAny:
		// Random: both directions open.
	case c.incAny:
		if c.eqAny && p.Incr.Min > 0 {
			p.Incr.Min = 0
		}
	case c.decAny:
		if c.eqAny && p.Decr.Min > 0 {
			p.Decr.Min = 0
		}
	default:
		// A constant signal: treat as random with unit freedom so the
		// proposal is a legal Table 1 instantiation.
		p.Incr = Rate{Min: 0, Max: 1}
		p.Decr = Rate{Min: 0, Max: 1}
	}
	class, err := p.Classify()
	if err != nil {
		// Widen into a legal random set: every direction open.
		if p.Incr.Max == 0 {
			p.Incr.Max = 1
		}
		if p.Decr.Max == 0 {
			p.Decr.Max = 1
		}
		p.Incr.Min, p.Decr.Min = 0, 0
		class, err = p.Classify()
		if err != nil {
			return Continuous{}, ClassUnknown, err
		}
	}
	return p, class, nil
}
