package core

import "testing"

func TestClassString(t *testing.T) {
	tests := []struct {
		class Class
		want  string
	}{
		{ContinuousRandom, "Co/Ra"},
		{ContinuousMonotonicStatic, "Co/Mo/St"},
		{ContinuousMonotonicDynamic, "Co/Mo/Dy"},
		{DiscreteRandom, "Di/Ra"},
		{DiscreteSequentialLinear, "Di/Se/Li"},
		{DiscreteSequentialNonLinear, "Di/Se/NL"},
		{ClassUnknown, "Class(0)"},
		{Class(42), "Class(42)"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tt.class), got, tt.want)
		}
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
}

func TestParseClassUnknown(t *testing.T) {
	for _, s := range []string{"", "Co", "co/ra", "Di/Se", "bogus"} {
		if _, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q): expected error", s)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	tests := []struct {
		class                         Class
		continuous, discrete, sequent bool
	}{
		{ContinuousRandom, true, false, false},
		{ContinuousMonotonicStatic, true, false, false},
		{ContinuousMonotonicDynamic, true, false, false},
		{DiscreteRandom, false, true, false},
		{DiscreteSequentialLinear, false, true, true},
		{DiscreteSequentialNonLinear, false, true, true},
		{ClassUnknown, false, false, false},
	}
	for _, tt := range tests {
		if got := tt.class.IsContinuous(); got != tt.continuous {
			t.Errorf("%v.IsContinuous() = %v, want %v", tt.class, got, tt.continuous)
		}
		if got := tt.class.IsDiscrete(); got != tt.discrete {
			t.Errorf("%v.IsDiscrete() = %v, want %v", tt.class, got, tt.discrete)
		}
		if got := tt.class.IsSequential(); got != tt.sequent {
			t.Errorf("%v.IsSequential() = %v, want %v", tt.class, got, tt.sequent)
		}
	}
}

func TestClassesCoversAllLeaves(t *testing.T) {
	classes := Classes()
	if len(classes) != 6 {
		t.Fatalf("Classes() returned %d classes, want 6", len(classes))
	}
	seen := map[Class]bool{}
	for _, c := range classes {
		if seen[c] {
			t.Errorf("Classes() contains %v twice", c)
		}
		seen[c] = true
		if !c.IsContinuous() && !c.IsDiscrete() {
			t.Errorf("Classes() contains non-leaf %v", c)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Signal: "s", Test: TestMax, Value: 9, Prev: 3, HasPrev: true, Mode: 1, Time: 42}
	want := "s: max-value violated (s=9, s'=3, mode=1, t=42)"
	if got := v.String(); got != want {
		t.Errorf("Violation.String() = %q, want %q", got, want)
	}
	v.HasPrev = false
	want = "s: max-value violated (s=9, mode=1, t=42)"
	if got := v.String(); got != want {
		t.Errorf("unprimed Violation.String() = %q, want %q", got, want)
	}
}

func TestTestIDString(t *testing.T) {
	tests := []struct {
		id   TestID
		want string
	}{
		{TestMax, "max-value"},
		{TestMin, "min-value"},
		{TestIncrease, "increase-rate"},
		{TestDecrease, "decrease-rate"},
		{TestUnchanged, "unchanged"},
		{TestDomain, "domain"},
		{TestTransition, "transition"},
		{TestID(99), "TestID(99)"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("TestID(%d).String() = %q, want %q", int(tt.id), got, tt.want)
		}
	}
}
