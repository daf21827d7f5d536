package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests (testing/quick) on the assertion engine's invariants.

// genParams derives a legal random-continuous parameter set from raw
// generator values.
func genParams(lo, span, rimax, rdmax int64) Continuous {
	span = 1 + abs64(span)%10000
	return Continuous{
		Min:  lo % 100000,
		Max:  lo%100000 + span,
		Incr: Rate{Min: 0, Max: abs64(rimax)%1000 + 1},
		Decr: Rate{Min: 0, Max: abs64(rdmax)%1000 + 1},
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 1 << 62
		}
		return -v
	}
	return v
}

// Any value above smax or below smin is always rejected, regardless of
// the previous value.
func TestQuickBoundsAlwaysRejected(t *testing.T) {
	f := func(lo, span, rimax, rdmax, prev, over int64) bool {
		p := genParams(lo, span, rimax, rdmax)
		prev = p.Clamp(prev)
		above := p.Max + 1 + abs64(over)%1000
		below := p.Min - 1 - abs64(over)%1000
		idA, okA := CheckContinuous(p, prev, above)
		idB, okB := CheckContinuous(p, prev, below)
		return !okA && idA == TestMax && !okB && idB == TestMin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A step whose magnitude is within the applicable rate window is
// always accepted (when it stays inside the bounds).
func TestQuickInRateAccepted(t *testing.T) {
	f := func(lo, span, rimax, rdmax, prevRaw, stepRaw int64, up bool) bool {
		p := genParams(lo, span, rimax, rdmax)
		prev := p.Clamp(prevRaw)
		var s int64
		if up {
			s = prev + abs64(stepRaw)%(p.Incr.Max+1)
		} else {
			s = prev - abs64(stepRaw)%(p.Decr.Max+1)
		}
		if s > p.Max || s < p.Min {
			return true // step left the domain; not this property's case
		}
		_, ok := CheckContinuous(p, prev, s)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A step larger than both the rate window and the wrap window is
// always rejected.
func TestQuickOverRateRejected(t *testing.T) {
	f := func(lo, span, rimax, rdmax, prevRaw int64) bool {
		p := genParams(lo, span, rimax, rdmax)
		if p.Max-p.Min <= p.Incr.Max+1 {
			return true // domain too small to exceed the rate inside it
		}
		prev := p.Min
		s := prev + p.Incr.Max + 1
		if s > p.Max {
			return true
		}
		id, ok := CheckContinuous(p, prev, s)
		return !ok && id == TestIncrease
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// CheckContinuous is a pure function: equal inputs give equal results.
func TestQuickCheckContinuousPure(t *testing.T) {
	f := func(lo, span, rimax, rdmax, prev, s int64) bool {
		p := genParams(lo, span, rimax, rdmax)
		id1, ok1 := CheckContinuous(p, prev, s)
		id2, ok2 := CheckContinuous(p, prev, s)
		return id1 == id2 && ok1 == ok2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A random walk generated inside the constraints never triggers the
// monitor (the §3.4 fault-free requirement, as a property).
func TestQuickInConstraintWalkClean(t *testing.T) {
	f := func(seed int64, rimax, rdmax uint8) bool {
		p := Continuous{
			Min:  0,
			Max:  10000,
			Incr: Rate{Min: 0, Max: int64(rimax%50) + 1},
			Decr: Rate{Min: 0, Max: int64(rdmax%50) + 1},
		}
		m, err := NewContinuousSingle("walk", ContinuousRandom, p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		v := int64(5000)
		for i := 0; i < 200; i++ {
			step := rng.Int63n(p.Incr.Max+p.Decr.Max+1) - p.Decr.Max
			v = p.Clamp(v + step)
			// Clamping can shrink the step, never grow it, so the
			// sample remains in-constraint.
			if _, violation := m.Test(int64(i), v); violation != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Clamp is idempotent and always lands inside the domain.
func TestQuickClampIdempotent(t *testing.T) {
	f := func(lo, span, v int64) bool {
		p := genParams(lo, span, 1, 1)
		c := p.Clamp(v)
		return c >= p.Min && c <= p.Max && p.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// For sequential discrete signals, passing the transition test implies
// domain membership (T(d) ⊆ D by validation).
func TestQuickTransitionImpliesDomain(t *testing.T) {
	f := func(domainRaw []int64, prevIdx, sIdx uint8) bool {
		if len(domainRaw) < 2 {
			return true
		}
		seen := map[int64]bool{}
		var domain []int64
		for _, d := range domainRaw {
			if !seen[d] {
				seen[d] = true
				domain = append(domain, d)
			}
		}
		if len(domain) < 2 {
			return true
		}
		p := NewLinear(domain, true, false)
		prev := domain[int(prevIdx)%len(domain)]
		s := domain[int(sIdx)%len(domain)]
		if p.allows(prev, s) && !p.contains(s) {
			return false
		}
		// And the full Table 3 chain agrees with the primitives.
		id, ok := CheckDiscrete(p, true, prev, s)
		if ok != (p.contains(s) && p.allows(prev, s)) {
			return false
		}
		if !ok && !p.contains(s) && id != TestDomain {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A linear cyclic walk along its domain never violates, any skip does.
func TestQuickLinearWalk(t *testing.T) {
	f := func(n, laps uint8) bool {
		size := int(n%20) + 2
		domain := make([]int64, size)
		for i := range domain {
			domain[i] = int64(i * 3)
		}
		p := NewLinear(domain, true, false)
		m, err := NewDiscreteSingle("lin", DiscreteSequentialLinear, p)
		if err != nil {
			return false
		}
		steps := (int(laps%3) + 1) * size
		for i := 0; i <= steps; i++ {
			if _, v := m.Test(int64(i), domain[i%size]); v != nil {
				return false
			}
		}
		// Now skip one value: must violate.
		_, v := m.Test(int64(steps+1), domain[(steps+2)%size])
		return v != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The continuous calibrator's proposal always accepts its own training
// trace (soundness of calibration).
func TestQuickCalibratorSound(t *testing.T) {
	f := func(seed int64, up, down uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var cal ContinuousCalibrator
		v := int64(1000)
		samples := make([]int64, 0, 120)
		for i := 0; i < 120; i++ {
			v += rng.Int63n(int64(up%40)+1) - int64(down%40)/2
			samples = append(samples, v)
			cal.Observe(v)
		}
		cal.EndRun()
		p, class, err := cal.Propose(CalibrationOptions{BoundMargin: 0.05, RateMargin: 0.05})
		if err != nil {
			return false
		}
		m, err := NewContinuousSingle("cal", class, p)
		if err != nil {
			return false
		}
		for i, s := range samples {
			if _, violation := m.Test(int64(i), s); violation != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Wrap-around acceptance is symmetric with the in-domain rate: for a
// static counter with modulus M, every step of the cycle passes and
// every double-step fails, across the wrap as well.
func TestQuickCounterWrapProperty(t *testing.T) {
	f := func(mRaw uint8) bool {
		m := int64(mRaw%60) + 5
		p := Continuous{Min: 0, Max: m, Incr: Rate{1, 1}, Wrap: true}
		prev := int64(0)
		for i := int64(0); i < 2*m; i++ {
			next := prev + 1
			if next == m {
				next = 0
			}
			if _, ok := CheckContinuous(p, prev, next); !ok {
				return false
			}
			// A double step must be rejected wherever it lands.
			double := next + 1
			if double == m {
				double = 0
			}
			if _, ok := CheckContinuous(p, prev, double); ok {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The dense Discrete index answers as Table 3's definitions over random
// sets (FuzzDiscreteIndex explores further from its corpus). Half the
// sets are narrow: values in -32..31 times 1 or 2, so spans fall on
// both sides of the index's 64-value bound, with prev and s near them.
func TestQuickDiscreteIndex(t *testing.T) {
	f := func(domain, trans []byte, step uint8, narrow, sequential bool, prev, s int64) bool {
		if narrow {
			for i := 0; i+1 < len(domain); i += 2 {
				v := int16(int8(domain[i+1]) >> 2)
				domain[i], domain[i+1] = byte(uint16(v)>>8), byte(v)
			}
			step = 1 + step%2
			prev, s = prev%80, s%80
		}
		checkDiscreteIndex(t, domain, trans, step, sequential, prev, s)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// defUnchanged is Table 2's s = s' row read straight off the
// parameters: test 3c, 4c or 5c passes.
func defUnchanged(p Continuous) bool {
	incrZero := p.Incr.Min == 0 && p.Incr.Max == 0
	decrZero := p.Decr.Min == 0 && p.Decr.Max == 0
	return incrZero && p.Decr.Min == 0 || // 3c
		decrZero && p.Incr.Min == 0 || // 4c
		!incrZero && !decrZero && (p.Incr.Min == 0 || p.Decr.Min == 0) // 5c
}

// The s = s' verdict a monitor compiles from its active set, and the
// one CheckContinuous reaches, equal Table 2's row over random legal
// sets of every continuous class: both a zero and a non-zero rmin on
// either side, so the row both passes and fails for dynamic and random
// signals (a static one must always change).
func TestQuickSameVerdict(t *testing.T) {
	seen := map[Class][2]bool{}
	f := func(a, b, c, d uint8, up bool, v int16) bool {
		rate := func(x, y uint8) Rate {
			lo := int64(x % 3)
			return Rate{Min: lo, Max: lo + int64(y%4)}
		}
		one, other := rate(a, b), rate(c, d)
		sets := map[Class]Continuous{}
		static, dynamic := Rate{Min: 1 + one.Min, Max: 1 + one.Min}, Rate{Min: one.Min, Max: one.Min + 1 + int64(b%4)}
		random := Continuous{Incr: one, Decr: other}
		if random.Incr.zero() {
			random.Incr.Max = 1
		}
		if random.Decr.zero() {
			random.Decr.Max = 1
		}
		if up {
			sets[ContinuousMonotonicStatic] = Continuous{Incr: static}
			sets[ContinuousMonotonicDynamic] = Continuous{Incr: dynamic}
		} else {
			sets[ContinuousMonotonicStatic] = Continuous{Decr: static}
			sets[ContinuousMonotonicDynamic] = Continuous{Decr: dynamic}
		}
		sets[ContinuousRandom] = random
		for class, p := range sets {
			p.Min, p.Max = -1000, 1000
			m, err := NewContinuousSingle("q", class, p, WithRecovery(NoRecovery{}))
			if err != nil {
				t.Errorf("generator built an illegal %v set %v: %v", class, p, err)
				return false
			}
			s := int64(v) % 1000
			want := TestUnchanged
			if defUnchanged(p) {
				want = 0
			}
			seen[class] = [2]bool{seen[class][0] || want == 0, seen[class][1] || want != 0}
			if got, _ := CheckContinuous(p, s, s); m.same != want || got != want {
				t.Errorf("%v %v: compiled s = s' verdict %v, CheckContinuous %v, Table 2 %v", class, p, m.same, got, want)
				return false
			}
			m.Test(0, s)
			if _, viol := m.Test(1, s); (viol == nil) != (want == 0) || (viol != nil && viol.Test != want) {
				t.Errorf("%v %v: monitor judged %d -> %d as %v, want %v", class, p, s, s, viol, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if seen[ContinuousMonotonicStatic] != [2]bool{false, true} {
		t.Errorf("static signals: the s = s' row passed/failed = %v, want only failures", seen[ContinuousMonotonicStatic])
	}
	for _, class := range []Class{ContinuousMonotonicDynamic, ContinuousRandom} {
		if seen[class] != [2]bool{true, true} {
			t.Errorf("%v: the s = s' row passed/failed = %v; the generator misses a case", class, seen[class])
		}
	}
}
