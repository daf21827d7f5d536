package core

import (
	"encoding/binary"
	"slices"
	"testing"
)

// Native fuzz targets. `go test` runs the seed corpus as regular unit
// tests; `go test -fuzz=FuzzCheckContinuous ./internal/core` explores
// further.

// FuzzCheckContinuous asserts engine totality and internal
// consistency for arbitrary parameter sets and values: no panic, a
// coherent (TestID, ok) pair, out-of-bounds always rejected, and
// purity.
func FuzzCheckContinuous(f *testing.F) {
	f.Add(int64(0), int64(100), int64(0), int64(5), int64(0), int64(5), true, int64(50), int64(53))
	f.Add(int64(0), int64(60000), int64(1), int64(1), int64(0), int64(0), true, int64(59999), int64(0))
	f.Add(int64(-10), int64(10), int64(0), int64(0), int64(2), int64(2), false, int64(5), int64(3))
	f.Fuzz(func(t *testing.T, min, max, im, ix, dm, dx int64, wrap bool, prev, s int64) {
		p := Continuous{
			Min:  min,
			Max:  max,
			Incr: Rate{Min: im, Max: ix},
			Decr: Rate{Min: dm, Max: dx},
			Wrap: wrap,
		}
		id1, ok1 := CheckContinuous(p, prev, s)
		id2, ok2 := CheckContinuous(p, prev, s)
		if id1 != id2 || ok1 != ok2 {
			t.Fatal("CheckContinuous is not pure")
		}
		if ok1 && id1 != 0 {
			t.Fatalf("pass with TestID %v", id1)
		}
		if !ok1 && id1 == 0 {
			t.Fatal("fail without TestID")
		}
		if s > p.Max && (ok1 || id1 != TestMax) {
			t.Fatalf("s=%d above max=%d not rejected as TestMax (%v, %v)", s, p.Max, id1, ok1)
		}
		if s <= p.Max && s < p.Min && (ok1 || id1 != TestMin) {
			t.Fatalf("s=%d below min=%d not rejected as TestMin (%v, %v)", s, p.Min, id1, ok1)
		}
	})
}

// FuzzMonitor exercises the stateful path: arbitrary observation
// sequences never panic, and the monitor's accounting stays coherent.
func FuzzMonitor(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 4}, int64(10), int64(90))
	f.Add([]byte{}, int64(0), int64(1))
	f.Fuzz(func(t *testing.T, samples []byte, lo, hi int64) {
		if hi <= lo {
			hi = lo + 1
		}
		m, err := NewContinuousSingle("fuzz", ContinuousRandom, Continuous{
			Min:  lo,
			Max:  hi,
			Incr: Rate{Min: 0, Max: 7},
			Decr: Rate{Min: 0, Max: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		var violations uint64
		for i, b := range samples {
			_, v := m.Test(int64(i), lo+int64(b))
			if v != nil {
				violations++
			}
		}
		if m.Tests() != uint64(len(samples)) || m.Violations() != violations {
			t.Fatalf("accounting: tests %d/%d violations %d/%d",
				m.Tests(), len(samples), m.Violations(), violations)
		}
	})
}

// FuzzDiscreteIndex checks that the dense index of a Discrete answers
// Contains, Allows and CheckDiscrete exactly as Table 3's definitions
// read straight off Domain and Trans, for hand-built sets, the
// constructors' sets and a monitor's active set, and that exactly the
// sets whose span holds at most 64 values carry the index. The seed
// corpus in testdata/fuzz/FuzzDiscreteIndex covers negative values,
// spans of 64 and 65, sparse domains on either side of that bound,
// empty T(d) and previous values outside D, inside and outside the
// span.
func FuzzDiscreteIndex(f *testing.F) {
	f.Fuzz(checkDiscreteIndex)
}

// discreteFromBytes decodes a parameter set: up to eight distinct
// domain values from big-endian int16 pairs of domain, times step, so
// that domains come out unsorted, negative and dense or sparse, and
// for each domain value a bit mask from trans selecting T(d) among the
// domain values (a zero mask gives d an empty T(d)).
func discreteFromBytes(domain, trans []byte, step uint8, sequential bool) Discrete {
	var p Discrete
	for i := 0; i+1 < len(domain) && len(p.Domain) < 8; i += 2 {
		v := int64(int16(binary.BigEndian.Uint16(domain[i:]))) * int64(step)
		if !defContains(p, v) {
			p.Domain = append(p.Domain, v)
		}
	}
	if !sequential || len(trans) == 0 {
		return p
	}
	p.Trans = make(map[int64][]int64)
	for i, d := range p.Domain {
		mask := trans[i%len(trans)]
		p.Trans[d] = nil
		for j, dst := range p.Domain {
			if mask&(1<<j) != 0 {
				p.Trans[d] = append(p.Trans[d], dst)
			}
		}
	}
	return p
}

// spanFits reports whether D's span, from its smallest to its largest
// value, holds at most 64 values: the sets the dense index covers.
func spanFits(domain []int64) bool {
	if len(domain) == 0 {
		return false
	}
	width := uint64(slices.Max(domain)) - uint64(slices.Min(domain)) + 1
	return width != 0 && width <= 64
}

// defContains and defAllows are Table 3's s ∈ D and s ∈ T(s'), read
// straight off the exported fields.
func defContains(p Discrete, v int64) bool {
	for _, d := range p.Domain {
		if d == v {
			return true
		}
	}
	return false
}

func defAllows(p Discrete, prev, v int64) bool {
	for _, d := range p.Trans[prev] {
		if d == v {
			return true
		}
	}
	return false
}

func checkDiscreteIndex(t *testing.T, domain, trans []byte, step uint8, sequential bool, prev, s int64) {
	p := discreteFromBytes(domain, trans, step, sequential)
	// Probe every domain value, its neighbours (mostly outside the
	// sparse domain) and the fuzzed prev and s.
	probes := []int64{prev, s}
	for _, d := range p.Domain {
		probes = append(probes, d, d-1, d+1)
	}
	sets := []Discrete{p, p.indexed(), NewRandom(p.Domain)}
	if len(p.Domain) > 0 {
		sets = append(sets, NewLinear(p.Domain, sequential, len(trans)%2 == 1))
	}
	for i, q := range sets {
		def := Discrete{Domain: q.Domain, Trans: q.Trans}
		if want := i > 0 && spanFits(q.Domain); q.dense != want {
			t.Fatalf("%v (set %d): dense index %v, want %v", def, i, q.dense, want)
		}
		for _, a := range probes {
			if got, want := q.contains(a), defContains(def, a); got != want {
				t.Fatalf("%v: Contains(%d) = %v, want %v", def, a, got, want)
			}
			for _, b := range probes {
				if got, want := q.allows(a, b), defAllows(def, a, b); got != want {
					t.Fatalf("%v: Allows(%d, %d) = %v, want %v", def, a, b, got, want)
				}
				id, ok := CheckDiscrete(q, sequential, a, b)
				wantID := TestID(0)
				if !defContains(def, b) {
					wantID = TestDomain
				} else if sequential && !defAllows(def, a, b) {
					wantID = TestTransition
				}
				if id != wantID || ok != (wantID == 0) {
					t.Fatalf("%v: CheckDiscrete(seq=%v, %d, %d) = (%v, %v), want %v",
						def, sequential, a, b, id, ok, wantID)
				}
			}
		}
	}
	// A monitor judges by its own indexed copy of the set. Without
	// recovery the stored s' is the last observation, so priming with
	// a and testing b runs CheckDiscrete(a, b).
	if len(p.Domain) == 0 || (sequential && p.Trans == nil) {
		return
	}
	class := DiscreteRandom
	if sequential {
		class = DiscreteSequentialNonLinear
	}
	m, err := NewDiscreteSingle("fuzz", class, p, WithRecovery(NoRecovery{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range probes {
		for _, b := range probes {
			m.Reset()
			m.Test(0, a)
			_, v := m.Test(1, b)
			want, ok := CheckDiscrete(p, sequential, a, b)
			if (v == nil) != ok || (v != nil && v.Test != want) {
				t.Fatalf("%v: monitor judged %d -> %d as %v, want %v", p, a, b, v, want)
			}
		}
	}
}
