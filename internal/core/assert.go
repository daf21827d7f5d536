package core

// This file implements the generic executable assertions of the paper's
// Table 2 (continuous signals) and Table 3 (discrete signals). The
// algorithms are pure functions of (previous value s', current value s,
// parameter set); Monitor supplies the state.

// CheckBounds runs tests no. 1 and 2 of Table 2 (s <= smax, s >= smin).
// It is used alone for the very first observation of a signal, when no
// previous value s' exists yet. The returned TestID is zero when both
// tests pass.
func CheckBounds(p Continuous, s int64) (TestID, bool) {
	id := judgeBounds(&p, s)
	return id, id == 0
}

// judgeBounds is CheckBounds on a pointer, returning only the TestID
// (zero passes), so that Monitor.Check neither copies its active
// parameter set nor carries a second result. The judge functions below
// follow the same pattern; they are the kernels the exported Check
// functions and Monitor share.
func judgeBounds(p *Continuous, s int64) TestID {
	if s > p.Max {
		return TestMax
	}
	if s < p.Min {
		return TestMin
	}
	return 0
}

// CheckContinuous runs the full Table 2 assertion chain for a
// continuous signal: tests 1 and 2 always, then exactly one of the
// status groups depending on the relationship between s and s'
// ("Signal status" column):
//
//	s > s': 3a (within increase parameters) or
//	        4a (wrap-around allowed and the apparent increase is a
//	            legal decrease past smin),
//	s < s': 3b (within decrease parameters) or
//	        4b (wrap-around allowed and the apparent decrease is a
//	            legal increase past smax),
//	s = s': 3c (monotonically decreasing signal whose parameters allow
//	            zero decrease), or
//	        4c (monotonically increasing, zero increase allowed), or
//	        5c (random signal with at least one zero-change direction).
//
// The first failing mandatory test or an exhausted status group yields
// the violation's TestID; (0, true) means the signal passed.
func CheckContinuous(p Continuous, prev, s int64) (TestID, bool) {
	id := judgeContinuous(&p, sameVerdict(&p), prev, s)
	return id, id == 0
}

// judgeContinuous is the Table 2 chain with the s = s' group's verdict
// supplied by the caller: it depends on the parameter set alone, so a
// monitor computes it once per active set (sameVerdict) instead of once
// per test.
func judgeContinuous(p *Continuous, same TestID, prev, s int64) TestID {
	if id := judgeBounds(p, s); id != 0 {
		return id
	}
	switch {
	case s > prev:
		// Test 3a: within increase parameters.
		if p.Incr.contains(s - prev) {
			return 0
		}
		// Test 4a: wrap-around is allowed and within decrease
		// parameters: the signal decreased past smin and re-entered at
		// smax, so the true decrease magnitude is
		// (s' - smin) + (smax - s).
		if p.Wrap && p.Decr.contains((prev-p.Min)+(p.Max-s)) {
			return 0
		}
		return TestIncrease
	case s < prev:
		// Test 3b: within decrease parameters.
		if p.Decr.contains(prev - s) {
			return 0
		}
		// Test 4b: wrap-around is allowed and within increase
		// parameters: the true increase magnitude is
		// (smax - s') + (s - smin).
		if p.Wrap && p.Incr.contains((p.Max-prev)+(s-p.Min)) {
			return 0
		}
		return TestDecrease
	default: // s == prev
		return same
	}
}

// sameVerdict is Table 2's s = s' group for the parameter set p: zero
// when one of tests 3c, 4c and 5c passes, TestUnchanged otherwise.
func sameVerdict(p *Continuous) TestID {
	// Test 3c: monotonically decreasing signal and within decrease
	// parameters (rmin,decr = 0 permits zero change).
	if p.Incr.zero() && p.Decr.Min == 0 {
		return 0
	}
	// Test 4c: monotonically increasing signal and within increase
	// parameters.
	if p.Decr.zero() && p.Incr.Min == 0 {
		return 0
	}
	// Test 5c: random signal (neither direction forbidden) with at
	// least one direction whose minimum rate is zero.
	if !p.Decr.zero() && !p.Incr.zero() && (p.Incr.Min == 0 || p.Decr.Min == 0) {
		return 0
	}
	return TestUnchanged
}

// CheckDiscrete runs the full Table 3 assertion set: s ∈ D for every
// discrete signal, then s ∈ T(s') for sequential classes. As in the
// paper, both tests are executed for sequential signals even though
// membership in T(s') implies membership in D; the domain test fires
// first so the reported TestID identifies the strongest violated
// property.
func CheckDiscrete(p Discrete, sequential bool, prev, s int64) (TestID, bool) {
	id := judgeDiscrete(&p, sequential, prev, s)
	return id, id == 0
}

func judgeDiscrete(p *Discrete, sequential bool, prev, s int64) TestID {
	if !p.contains(s) {
		return TestDomain
	}
	if sequential && !p.allows(prev, s) {
		return TestTransition
	}
	return 0
}
