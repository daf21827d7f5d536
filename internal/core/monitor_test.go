package core

import (
	"errors"
	"testing"
)

func mustContinuousMonitor(t *testing.T, p Continuous, opts ...MonitorOption) *Monitor {
	t.Helper()
	m, err := NewContinuousSingle("sig", ContinuousRandom, p, opts...)
	if err != nil {
		t.Fatalf("NewContinuousSingle: %v", err)
	}
	return m
}

func TestMonitorFirstObservationBoundsOnly(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 1}, Decr: Rate{0, 1}}
	m := mustContinuousMonitor(t, p)
	// A huge first value is fine as long as it is within bounds: there
	// is no s' yet, so no rate test runs.
	if _, v := m.Test(0, 99); v != nil {
		t.Fatalf("first in-bounds observation flagged: %v", v)
	}
	// Now the rate tests are armed.
	if _, v := m.Test(1, 50); v == nil {
		t.Fatal("49-unit drop with rate limit 1 not flagged")
	}
}

func TestMonitorFirstObservationOutOfBounds(t *testing.T) {
	p := Continuous{Min: 10, Max: 100, Incr: Rate{0, 5}, Decr: Rate{0, 5}}
	m := mustContinuousMonitor(t, p)
	accepted, v := m.Test(0, 200)
	if v == nil || v.Test != TestMax {
		t.Fatalf("violation = %v, want TestMax", v)
	}
	if v.HasPrev {
		t.Error("first observation must report HasPrev=false")
	}
	// Default recovery is PreviousValue, which clamps on an unprimed
	// monitor.
	if accepted != 100 {
		t.Errorf("accepted = %d, want clamp to 100", accepted)
	}
}

func TestMonitorRecoveryWriteback(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 10}, Decr: Rate{0, 10}}
	m := mustContinuousMonitor(t, p, WithRecovery(PreviousValue{}))
	m.Test(0, 50)
	accepted, v := m.Test(1, 90)
	if v == nil {
		t.Fatal("jump of 40 with rate 10 not flagged")
	}
	if accepted != 50 {
		t.Fatalf("accepted = %d, want previous value 50", accepted)
	}
	// The recovered value became the new s': a legal step from 50
	// passes.
	if _, v := m.Test(2, 55); v != nil {
		t.Fatalf("step from recovered value flagged: %v", v)
	}
}

func TestMonitorNoRecoveryKeepsValue(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 10}, Decr: Rate{0, 10}}
	m := mustContinuousMonitor(t, p, WithRecovery(NoRecovery{}))
	m.Test(0, 50)
	accepted, v := m.Test(1, 90)
	if v == nil || accepted != 90 {
		t.Fatalf("accepted = %d (violation %v), want offending value 90 kept", accepted, v)
	}
	// The offending value is now the baseline: the same value again is
	// a legal zero change.
	if _, v := m.Test(2, 90); v != nil {
		t.Fatalf("repeat of kept value flagged: %v", v)
	}
}

func TestMonitorSink(t *testing.T) {
	p := Continuous{Min: 0, Max: 10, Incr: Rate{0, 1}, Decr: Rate{0, 1}}
	rec := &Recorder{}
	m := mustContinuousMonitor(t, p, WithSink(rec))
	m.Test(5, 3)
	m.Test(6, 99)
	m.Test(7, 3)
	if rec.Count() != 1 {
		t.Fatalf("recorder has %d violations, want 1", rec.Count())
	}
	got := rec.Violations()[0]
	if got.Time != 6 {
		t.Errorf("first detection time = %d, want 6", got.Time)
	}
	if got.Signal != "sig" || got.Test != TestMax || got.Value != 99 || got.Prev != 3 || !got.HasPrev {
		t.Errorf("violation = %+v", got)
	}
}

func TestMonitorModes(t *testing.T) {
	modes := map[int]Continuous{
		0: {Min: 0, Max: 10, Incr: Rate{0, 2}, Decr: Rate{0, 2}},
		1: {Min: 0, Max: 100, Incr: Rate{0, 50}, Decr: Rate{0, 50}},
	}
	m, err := NewContinuous("sig", ContinuousRandom, modes)
	if err != nil {
		t.Fatal(err)
	}
	m.Test(0, 5)
	if _, v := m.Test(1, 9); v == nil {
		t.Fatal("mode 0: jump of 4 with rate 2 not flagged")
	}
	if err := m.SetMode(1); err != nil {
		t.Fatal(err)
	}
	if m.mode != 1 {
		t.Fatalf("mode = %d, want 1", m.mode)
	}
	if _, v := m.Test(2, 40); v != nil {
		t.Fatalf("mode 1: jump of 35 with rate 50 flagged: %v", v)
	}
	if err := m.SetMode(7); !errors.Is(err, ErrUnknownMode) {
		t.Fatalf("SetMode(7) = %v, want ErrUnknownMode", err)
	}
}

func TestMonitorConstructorErrors(t *testing.T) {
	if _, err := NewContinuous("s", ContinuousRandom, nil); !errors.Is(err, ErrNoModes) {
		t.Errorf("empty modes: %v, want ErrNoModes", err)
	}
	bad := map[int]Continuous{0: {Min: 5, Max: 5}}
	if _, err := NewContinuous("s", ContinuousRandom, bad); !errors.Is(err, ErrBadBounds) {
		t.Errorf("invalid params: %v, want ErrBadBounds", err)
	}
	good := map[int]Continuous{2: {Min: 0, Max: 10, Incr: Rate{0, 1}, Decr: Rate{0, 1}}}
	if _, err := NewContinuous("s", ContinuousRandom, good); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("initial mode 0 missing: %v, want ErrUnknownMode", err)
	}
	if _, err := NewContinuous("s", ContinuousRandom, good, WithInitialMode(2)); err != nil {
		t.Errorf("explicit initial mode: %v", err)
	}
	if _, err := NewDiscrete("s", DiscreteRandom, map[int]Discrete{0: {}}); err == nil {
		t.Error("empty discrete parameter set accepted")
	}
	if _, err := NewDiscrete("s", DiscreteRandom, nil); !errors.Is(err, ErrNoModes) {
		t.Errorf("empty discrete modes: %v, want ErrNoModes", err)
	}
}

func TestMonitorDiscrete(t *testing.T) {
	p := NewLinear([]int64{0, 1, 2}, true, false)
	m, err := NewDiscreteSingle("slot", DiscreteSequentialLinear, p, WithRecovery(PreviousValue{}))
	if err != nil {
		t.Fatal(err)
	}
	// First observation: domain only.
	if _, v := m.Test(0, 2); v != nil {
		t.Fatalf("first in-domain observation flagged: %v", v)
	}
	if _, v := m.Test(1, 0); v != nil {
		t.Fatalf("legal cyclic transition flagged: %v", v)
	}
	if _, v := m.Test(2, 2); v == nil || v.Test != TestTransition {
		t.Fatalf("illegal transition 0->2: %v", v)
	}
	if _, v := m.Test(3, 9); v == nil || v.Test != TestDomain {
		t.Fatalf("out of domain: %v", v)
	}
}

func TestMonitorResetAndPrime(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 1}, Decr: Rate{0, 1}}
	m := mustContinuousMonitor(t, p)
	m.Test(0, 10)
	m.Reset()
	// After reset the next observation is a first observation again.
	if _, v := m.Test(1, 90); v != nil {
		t.Fatalf("post-reset first observation flagged: %v", v)
	}
	// That observation primes s': the next one is rate-tested.
	if _, v := m.Test(2, 92); v == nil {
		t.Fatal("primed monitor must run rate tests (jump of 2, limit 1)")
	}
}

func TestMonitorCounters(t *testing.T) {
	p := Continuous{Min: 0, Max: 10, Incr: Rate{0, 1}, Decr: Rate{0, 1}}
	m := mustContinuousMonitor(t, p)
	m.Test(0, 1)
	m.Test(1, 99)
	m.Test(2, 2)
	if m.Tests() != 3 || m.Violations() != 1 {
		t.Errorf("counters = (%d, %d), want (3, 1)", m.Tests(), m.Violations())
	}
	if m.Name() != "sig" || m.Class() != ContinuousRandom {
		t.Errorf("identity = (%q, %v)", m.Name(), m.Class())
	}
}

// TestMonitorCheckCallerPrev pins that Check judges against the s' its
// caller holds, not the monitor's own: the mechanism the target uses to
// keep s' in injectable RAM, where a corrupted s' changes the verdict.
func TestMonitorCheckCallerPrev(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 5}, Decr: Rate{0, 5}}
	m := mustContinuousMonitor(t, p)
	prev, _ := m.Check(0, 0, 42)
	if prev != 42 {
		t.Fatalf("Check accepted %d, want 42", prev)
	}
	if next, v := m.Check(1, prev, 44); v != nil || next != 44 {
		t.Fatalf("44 after s'=42 judged (%d, %v), want accepted", next, v)
	}
	// Corrupting the caller's s' changes what the monitor compares
	// against.
	if _, v := m.Check(2, 90, 44); v == nil || v.Prev != 90 {
		t.Fatalf("jump from corrupted s'=90 to 44 judged %v, want a violation against 90", v)
	}
	// Test keeps its own s', which Check never wrote: still 0.
	if _, v := m.Test(3, 44); v == nil || v.Prev != 0 {
		t.Fatalf("Test judged 44 as %v, want a violation against its own s'=0", v)
	}
}

func TestRecorderReset(t *testing.T) {
	r := &Recorder{}
	r.Detect(Violation{Time: 5})
	r.Reset()
	if r.Detected() || r.Count() != 0 {
		t.Error("Reset did not clear the recorder")
	}
}

// TestMonitorModeCache pins that Test judges by the active mode's
// current parameter set, and by the s = s' verdict compiled from it,
// after every way the mode or its set can change: SetMode, RestoreState
// to another mode and UpdateContinuous of the active mode. The monitor
// resolves the set once per change instead of once per Test, so a
// missed refresh would judge by stale parameters.
func TestMonitorModeCache(t *testing.T) {
	tight := Continuous{Min: 0, Max: 10, Incr: Rate{0, 100}, Decr: Rate{0, 100}}
	wide := Continuous{Min: 0, Max: 100, Incr: Rate{0, 100}, Decr: Rate{0, 100}}
	m, err := NewContinuous("sig", ContinuousRandom, map[int]Continuous{0: tight, 1: wide},
		WithRecovery(NoRecovery{}))
	if err != nil {
		t.Fatal(err)
	}
	// judge reports whether 50, far outside tight and inside wide,
	// passes under the active parameters.
	judge := func() bool {
		m.Reset()
		_, v := m.Test(0, 50)
		return v == nil
	}
	if judge() {
		t.Fatal("mode 0: 50 above smax 10 accepted")
	}
	if err := m.SetMode(1); err != nil {
		t.Fatal(err)
	}
	if !judge() {
		t.Fatal("SetMode(1): still judged by mode 0")
	}
	inWide := m.State()
	if err := m.SetMode(0); err != nil {
		t.Fatal(err)
	}
	if judge() {
		t.Fatal("SetMode(0): still judged by mode 1")
	}
	m.RestoreState(inWide)
	if !judge() {
		t.Fatal("RestoreState to mode 1: still judged by mode 0")
	}
	inWide.Mode = 0
	m.RestoreState(inWide)
	if judge() {
		t.Fatal("RestoreState to mode 0: still judged by mode 1")
	}
	// Updating another mode leaves the active set alone; updating the
	// active mode takes effect at the next Test.
	if err := m.UpdateContinuous(1, tight); err != nil {
		t.Fatal(err)
	}
	if judge() {
		t.Fatal("UpdateContinuous of inactive mode 1 changed the active set")
	}
	if err := m.UpdateContinuous(0, wide); err != nil {
		t.Fatal(err)
	}
	if !judge() {
		t.Fatal("UpdateContinuous of active mode 0: still judged by the old set")
	}

	// The s = s' verdict is compiled with the set: a dynamic counter
	// whose minimum increase is 1 must change on every test, one whose
	// minimum is 0 may hold (Table 2 test 4c).
	must := Continuous{Min: 0, Max: 100, Incr: Rate{1, 5}}
	may := Continuous{Min: 0, Max: 100, Incr: Rate{0, 5}}
	c, err := NewContinuous("cnt", ContinuousMonotonicDynamic, map[int]Continuous{0: must, 1: may},
		WithRecovery(NoRecovery{}))
	if err != nil {
		t.Fatal(err)
	}
	holds := func() bool {
		c.Reset()
		c.Test(0, 10)
		_, v := c.Test(1, 10)
		return v == nil
	}
	if holds() {
		t.Fatal("mode 0: unchanged value accepted with rmin,incr = 1")
	}
	if err := c.SetMode(1); err != nil {
		t.Fatal(err)
	}
	if !holds() {
		t.Fatal("SetMode(1): s = s' still judged by mode 0")
	}
	inMay := c.State()
	if err := c.SetMode(0); err != nil {
		t.Fatal(err)
	}
	if holds() {
		t.Fatal("SetMode(0): s = s' still judged by mode 1")
	}
	c.RestoreState(inMay)
	if !holds() {
		t.Fatal("RestoreState to mode 1: s = s' still judged by mode 0")
	}
	inMay.Mode = 0
	c.RestoreState(inMay)
	if holds() {
		t.Fatal("RestoreState to mode 0: s = s' still judged by mode 1")
	}
	if err := c.UpdateContinuous(0, may); err != nil {
		t.Fatal(err)
	}
	if !holds() {
		t.Fatal("UpdateContinuous of active mode 0: s = s' still judged by the old set")
	}

	d, err := NewDiscrete("slot", DiscreteRandom, map[int]Discrete{
		0: NewRandom([]int64{1, 2}),
		1: NewRandom([]int64{3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, v := d.Test(0, 3); v == nil {
		t.Fatal("discrete mode 0: 3 outside {1, 2} accepted")
	}
	if err := d.SetMode(1); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if _, v := d.Test(1, 3); v != nil {
		t.Fatalf("discrete SetMode(1): still judged by mode 0: %v", v)
	}
}

// TestNewContinuousCopiesModes pins that a monitor owns its parameter
// sets: neither later edits of the caller's map nor UpdateContinuous
// leak across that boundary.
func TestNewContinuousCopiesModes(t *testing.T) {
	p := Continuous{Min: 0, Max: 10, Incr: Rate{0, 100}, Decr: Rate{0, 100}}
	modes := map[int]Continuous{0: p}
	m, err := NewContinuous("sig", ContinuousRandom, modes)
	if err != nil {
		t.Fatal(err)
	}
	modes[0] = Continuous{Min: 0, Max: 100, Incr: Rate{0, 100}, Decr: Rate{0, 100}}
	if _, v := m.Test(0, 50); v == nil {
		t.Fatal("edit of the caller's map reached the monitor")
	}
	if err := m.UpdateContinuous(0, Continuous{Min: 0, Max: 5, Incr: Rate{0, 1}, Decr: Rate{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if modes[0].Max != 100 {
		t.Fatalf("UpdateContinuous wrote into the caller's map: %v", modes[0])
	}
}
