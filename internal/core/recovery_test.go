package core

import "testing"

func TestNoRecovery(t *testing.T) {
	p := Continuous{Min: 0, Max: 10}
	v := Violation{Value: 99, Prev: 5, HasPrev: true}
	if got := (NoRecovery{}).RecoverContinuous(v, p); got != 99 {
		t.Errorf("continuous = %d, want 99", got)
	}
	d := NewRandom([]int64{1, 2})
	if got := (NoRecovery{}).RecoverDiscrete(v, d); got != 99 {
		t.Errorf("discrete = %d, want 99", got)
	}
}

func TestPreviousValueRecovery(t *testing.T) {
	p := Continuous{Min: 0, Max: 10}
	primed := Violation{Value: 99, Prev: 5, HasPrev: true}
	if got := (PreviousValue{}).RecoverContinuous(primed, p); got != 5 {
		t.Errorf("primed continuous = %d, want 5", got)
	}
	unprimed := Violation{Value: 99, HasPrev: false}
	if got := (PreviousValue{}).RecoverContinuous(unprimed, p); got != 10 {
		t.Errorf("unprimed continuous = %d, want clamp to 10", got)
	}
	low := Violation{Value: -7, HasPrev: false}
	if got := (PreviousValue{}).RecoverContinuous(low, p); got != 0 {
		t.Errorf("unprimed low continuous = %d, want clamp to 0", got)
	}

	d := NewRandom([]int64{3, 4})
	if got := (PreviousValue{}).RecoverDiscrete(primed, d); got != 3 {
		// prev 5 is not in the domain, so the first domain value wins.
		t.Errorf("discrete with out-of-domain prev = %d, want 3", got)
	}
	inDomain := Violation{Value: 99, Prev: 4, HasPrev: true}
	if got := (PreviousValue{}).RecoverDiscrete(inDomain, d); got != 4 {
		t.Errorf("discrete with in-domain prev = %d, want 4", got)
	}
	empty := Discrete{}
	if got := (PreviousValue{}).RecoverDiscrete(Violation{Value: 9}, empty); got != 9 {
		t.Errorf("discrete with empty domain = %d, want offending value kept", got)
	}
}

func TestResetToRecovery(t *testing.T) {
	r := ResetTo{Value: 7}
	if got := r.RecoverContinuous(Violation{Value: 99}, Continuous{}); got != 7 {
		t.Errorf("continuous = %d, want 7", got)
	}
	d := NewRandom([]int64{1, 2})
	if got := r.RecoverDiscrete(Violation{Value: 99}, d); got != 7 {
		t.Errorf("discrete = %d, want 7", got)
	}
}
