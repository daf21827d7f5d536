package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestContinuousCalibratorMonotonic(t *testing.T) {
	var cal ContinuousCalibrator
	// A counter increasing by 1..3 per sample.
	rng := rand.New(rand.NewSource(1))
	v := int64(10)
	samples := []int64{v}
	for i := 0; i < 200; i++ {
		v += 1 + rng.Int63n(3)
		samples = append(samples, v)
	}
	for _, s := range samples {
		cal.Observe(s)
	}
	cal.EndRun()
	p, class, err := cal.Propose(CalibrationOptions{BoundMargin: 0.1, RateMargin: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if class != ContinuousMonotonicDynamic && class != ContinuousMonotonicStatic {
		t.Fatalf("class = %v, want a monotonic class", class)
	}
	if err := p.Validate(class); err != nil {
		t.Fatalf("proposal does not validate: %v", err)
	}
	// The proposal must accept the trace it was derived from.
	replayTrace(t, p, samples)
}

func TestContinuousCalibratorStatic(t *testing.T) {
	var cal ContinuousCalibrator
	var samples []int64
	for i := int64(0); i < 100; i++ {
		samples = append(samples, i*4)
	}
	for _, s := range samples {
		cal.Observe(s)
	}
	p, class, err := cal.Propose(CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if class != ContinuousMonotonicStatic {
		t.Fatalf("class = %v, want Co/Mo/St", class)
	}
	if p.Incr.Min != 4 || p.Incr.Max != 4 {
		t.Fatalf("rate = %+v, want fixed 4", p.Incr)
	}
	replayTrace(t, p, samples)
}

func TestContinuousCalibratorRandom(t *testing.T) {
	var cal ContinuousCalibrator
	rng := rand.New(rand.NewSource(2))
	v := int64(500)
	var samples []int64
	for i := 0; i < 500; i++ {
		v += rng.Int63n(21) - 10
		samples = append(samples, v)
	}
	for _, s := range samples {
		cal.Observe(s)
	}
	p, class, err := cal.Propose(CalibrationOptions{BoundMargin: 0.05, RateMargin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if class != ContinuousRandom {
		t.Fatalf("class = %v, want Co/Ra", class)
	}
	replayTrace(t, p, samples)
}

func TestContinuousCalibratorConstantSignal(t *testing.T) {
	var cal ContinuousCalibrator
	for i := 0; i < 10; i++ {
		cal.Observe(7)
	}
	p, class, err := cal.Propose(CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if class != ContinuousRandom {
		t.Fatalf("class = %v, want Co/Ra fallback", class)
	}
	replayTrace(t, p, []int64{7, 7, 7})
}

func TestContinuousCalibratorEndRunSeparatesRuns(t *testing.T) {
	var cal ContinuousCalibrator
	// Run 1 ends at 1000; run 2 restarts at 0. Without EndRun the
	// -1000 jump would poison the decrease envelope.
	for i := int64(0); i <= 10; i++ {
		cal.Observe(i * 100)
	}
	cal.EndRun()
	for i := int64(0); i <= 10; i++ {
		cal.Observe(i * 100)
	}
	p, class, err := cal.Propose(CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if class != ContinuousMonotonicStatic {
		t.Fatalf("class = %v, want Co/Mo/St (no inter-run decrease recorded)", class)
	}
	if !p.Decr.zero() {
		t.Fatalf("decrease envelope polluted: %+v", p.Decr)
	}
}

func TestContinuousCalibratorEmpty(t *testing.T) {
	var cal ContinuousCalibrator
	if _, _, err := cal.Propose(CalibrationOptions{}); !errors.Is(err, ErrNoObservations) {
		t.Fatalf("err = %v, want ErrNoObservations", err)
	}
}

// replayTrace runs the trace through a monitor built from the proposal
// and fails on any violation: a calibrated parameter set must accept
// its own training data (the paper's §3.4 requirement that fault-free
// runs are detection-free).
func replayTrace(t *testing.T, p Continuous, samples []int64) {
	t.Helper()
	class, err := p.Classify()
	if err != nil {
		t.Fatalf("proposal classifies as nothing: %v", err)
	}
	m, err := NewContinuousSingle("replay", class, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if _, v := m.Test(int64(i), s); v != nil {
			t.Fatalf("sample %d (%d) rejected by calibrated parameters: %v", i, s, v)
		}
	}
}
