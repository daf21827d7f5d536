package core

// This file implements the generic executable assertions of the paper's
// Table 2 (continuous signals) and Table 3 (discrete signals). The
// algorithms are pure functions of (previous value s', current value s,
// parameter set); Monitor supplies the state.

// CheckBounds runs tests no. 1 and 2 of Table 2 (s <= smax, s >= smin).
// It is used alone for the very first observation of a signal, when no
// previous value s' exists yet. The returned TestID is zero when both
// tests pass.
func CheckBounds(p Continuous, s int64) (TestID, bool) { return checkBounds(&p, s) }

// checkBounds is CheckBounds on a pointer, so that Monitor.Test does not
// copy its active parameter set on every call. The check functions
// below follow the same pattern.
func checkBounds(p *Continuous, s int64) (TestID, bool) {
	if s > p.Max {
		return TestMax, false
	}
	if s < p.Min {
		return TestMin, false
	}
	return 0, true
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
	return checkContinuous(&p, prev, s)
}

func checkContinuous(p *Continuous, prev, s int64) (TestID, bool) {
	if id, ok := checkBounds(p, s); !ok {
		return id, false
	}
	switch {
	case s > prev:
		// Test 3a: within increase parameters.
		if p.Incr.contains(s - prev) {
			return 0, true
		}
		// Test 4a: wrap-around is allowed and within decrease
		// parameters: the signal decreased past smin and re-entered at
		// smax, so the true decrease magnitude is
		// (s' - smin) + (smax - s).
		if p.Wrap && p.Decr.contains((prev-p.Min)+(p.Max-s)) {
			return 0, true
		}
		return TestIncrease, false
	case s < prev:
		// Test 3b: within decrease parameters.
		if p.Decr.contains(prev - s) {
			return 0, true
		}
		// Test 4b: wrap-around is allowed and within increase
		// parameters: the true increase magnitude is
		// (smax - s') + (s - smin).
		if p.Wrap && p.Incr.contains((p.Max-prev)+(s-p.Min)) {
			return 0, true
		}
		return TestDecrease, false
	default: // s == prev
		// Test 3c: monotonically decreasing signal and within decrease
		// parameters (rmin,decr = 0 permits zero change).
		if p.Incr.zero() && p.Decr.Min == 0 {
			return 0, true
		}
		// Test 4c: monotonically increasing signal and within increase
		// parameters.
		if p.Decr.zero() && p.Incr.Min == 0 {
			return 0, true
		}
		// Test 5c: random signal (neither direction forbidden) with at
		// least one direction whose minimum rate is zero.
		if !p.Decr.zero() && !p.Incr.zero() && (p.Incr.Min == 0 || p.Decr.Min == 0) {
			return 0, true
		}
		return TestUnchanged, false
	}
}

// CheckDiscreteDomain runs the Table 3 domain assertion s ∈ D shared by
// random and sequential discrete signals.
func CheckDiscreteDomain(p Discrete, s int64) (TestID, bool) {
	return checkDiscreteDomain(&p, s)
}

func checkDiscreteDomain(p *Discrete, s int64) (TestID, bool) {
	if !p.contains(s) {
		return TestDomain, false
	}
	return 0, true
}

// CheckDiscrete runs the full Table 3 assertion set: s ∈ D for every
// discrete signal, then s ∈ T(s') for sequential classes. As in the
// paper, both tests are executed for sequential signals even though
// membership in T(s') implies membership in D; the domain test fires
// first so the reported TestID identifies the strongest violated
// property.
func CheckDiscrete(p Discrete, sequential bool, prev, s int64) (TestID, bool) {
	return checkDiscrete(&p, sequential, prev, s)
}

func checkDiscrete(p *Discrete, sequential bool, prev, s int64) (TestID, bool) {
	if id, ok := checkDiscreteDomain(p, s); !ok {
		return id, false
	}
	if sequential && !p.allows(prev, s) {
		return TestTransition, false
	}
	return 0, true
}
