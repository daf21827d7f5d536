package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestUpdateContinuous(t *testing.T) {
	p := Continuous{Min: 0, Max: 100, Incr: Rate{0, 5}, Decr: Rate{0, 5}}
	m, err := NewContinuousSingle("dyn", ContinuousRandom, p)
	if err != nil {
		t.Fatal(err)
	}
	m.Test(0, 50)
	// Narrow the acceptance region at run time.
	narrow := Continuous{Min: 40, Max: 60, Incr: Rate{0, 5}, Decr: Rate{0, 5}}
	if err := m.UpdateContinuous(0, narrow); err != nil {
		t.Fatal(err)
	}
	if _, v := m.Test(1, 52); v != nil {
		t.Fatalf("in-envelope sample flagged: %v", v)
	}
	// 65 was legal under the old set; the dynamic bound rejects it.
	if _, v := m.Test(2, 57); v != nil {
		t.Fatalf("57: %v", v)
	}
	if _, v := m.Test(3, 61); v == nil || v.Test != TestMax {
		t.Fatalf("out-of-envelope sample: %v", v)
	}

	// Validation still applies.
	if err := m.UpdateContinuous(0, Continuous{Min: 5, Max: 5}); err == nil {
		t.Error("invalid parameter set accepted")
	}
	if err := m.UpdateContinuous(7, narrow); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("unknown mode: %v", err)
	}
	d := NewRandom([]int64{1})
	dm, _ := NewDiscreteSingle("d", DiscreteRandom, d)
	if err := dm.UpdateContinuous(0, narrow); err == nil {
		t.Error("continuous update on a discrete monitor accepted")
	}
}

func TestEnvelopeTrackerFollowsReference(t *testing.T) {
	e := EnvelopeTracker{Above: 20, Below: 20, Slack: 5, Floor: 0, Ceil: 1000}
	m, err := NewContinuousSingle("measured", ContinuousRandom, e.Observe(500))
	if err != nil {
		t.Fatal(err)
	}
	// The measured signal follows the reference with a small lag and
	// noise: never flagged.
	rng := rand.New(rand.NewSource(3))
	ref, meas := int64(500), int64(500)
	for i := 0; i < 500; i++ {
		ref += rng.Int63n(7) - 3
		if ref < 0 {
			ref = 0
		}
		if ref > 1000 {
			ref = 1000
		}
		meas += (ref - meas) / 2
		meas += rng.Int63n(3) - 1
		if err := m.UpdateContinuous(0, e.Observe(ref)); err != nil {
			t.Fatal(err)
		}
		if _, v := m.Test(int64(i), meas); v != nil {
			t.Fatalf("tracking signal flagged at %d: %v", i, v)
		}
	}
	// A stuck-at fault: the measurement freezes while the reference
	// walks away. The dynamic envelope detects it as soon as the gap
	// exceeds the tolerance — a fault no static bound could see.
	stuck := meas
	for i := 0; i < 200; i++ {
		ref += 3
		if ref > 1000 {
			ref = 1000
		}
		m.UpdateContinuous(0, e.Observe(ref))
		if _, v := m.Test(int64(500+i), stuck); v != nil {
			return // detected
		}
	}
	t.Fatal("stuck-at measurement never left the dynamic envelope")
}

func TestEnvelopeTrackerClamps(t *testing.T) {
	e := EnvelopeTracker{Above: 50, Below: 50, Slack: 2, Floor: 0, Ceil: 100}
	p := e.Observe(10)
	if p.Min != 0 {
		t.Errorf("Min = %d, want floor clamp", p.Min)
	}
	p = e.Observe(90)
	if p.Max != 100 {
		t.Errorf("Max = %d, want ceil clamp", p.Max)
	}
	// Rate follows the reference change (80) plus slack.
	if p.Incr.Max != 82 {
		t.Errorf("rate = %d, want 82", p.Incr.Max)
	}
	e.Reset()
	p = e.Observe(50)
	if p.Incr.Max != 100+2 {
		t.Errorf("post-reset rate = %d, want full span plus slack", p.Incr.Max)
	}
	// Every derived set is a legal random-continuous instantiation.
	if err := p.Validate(ContinuousRandom); err != nil {
		t.Errorf("derived set invalid: %v", err)
	}
}
