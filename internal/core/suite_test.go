package core

import (
	"errors"
	"testing"
)

func suiteWithMonitors(t *testing.T, opts ...SuiteOption) *Suite {
	t.Helper()
	s := NewSuite(opts...)
	temp, err := NewContinuousSingle("temp", ContinuousRandom,
		Continuous{Min: 0, Max: 100, Incr: Rate{0, 5}, Decr: Rate{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	mode, err := NewDiscreteSingle("mode", DiscreteSequentialLinear,
		NewLinear([]int64{0, 1, 2}, true, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(temp); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mode); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteRegistry(t *testing.T) {
	s := suiteWithMonitors(t)
	if len(s.monitors) != 2 {
		t.Fatalf("%d monitors registered", len(s.monitors))
	}
	if _, ok := s.monitors["temp"]; !ok {
		t.Error("temp not found")
	}
	if _, ok := s.monitors["ghost"]; ok {
		t.Error("ghost found")
	}
	dup, _ := NewContinuousSingle("temp", ContinuousRandom,
		Continuous{Min: 0, Max: 1, Incr: Rate{0, 1}, Decr: Rate{0, 1}})
	if err := s.Add(dup); !errors.Is(err, ErrDuplicateMonitor) {
		t.Errorf("duplicate add = %v", err)
	}
	if err := s.Add(nil); err == nil {
		t.Error("nil monitor accepted")
	}
}

func TestSuiteTestRouting(t *testing.T) {
	s := suiteWithMonitors(t)
	if _, _, err := s.Test(0, "temp", 50); err != nil {
		t.Fatal(err)
	}
	_, v, err := s.Test(1, "temp", 90)
	if err != nil || v == nil {
		t.Fatalf("jump not flagged: v=%v err=%v", v, err)
	}
	if _, _, err := s.Test(2, "ghost", 1); !errors.Is(err, ErrUnknownMonitor) {
		t.Errorf("unknown monitor = %v", err)
	}
}

func TestSuiteEscalation(t *testing.T) {
	var alarms []Alarm
	s := suiteWithMonitors(t, WithEscalation(3, 100, 50, func(a Alarm) { alarms = append(alarms, a) }))
	s.Test(0, "temp", 50)
	// Two violations inside the window: below the threshold.
	s.Test(10, "temp", 90)
	s.Test(20, "temp", 90)
	if len(alarms) != 0 {
		t.Fatalf("premature alarm: %v", alarms)
	}
	// Third within the window: alarm fires once.
	s.Test(30, "temp", 90)
	if len(alarms) != 1 || s.Alarms() != 1 {
		t.Fatalf("alarms = %v (count %d)", alarms, s.Alarms())
	}
	if alarms[0].Count != 3 || alarms[0].Time != 30 {
		t.Errorf("alarm payload = %+v", alarms[0])
	}
	// Further violations inside the same episode do not re-alarm.
	s.Test(40, "temp", 90)
	s.Test(50, "temp", 90)
	if len(alarms) != 1 {
		t.Fatalf("episode re-alarmed: %v", alarms)
	}
	// After the quiet period a fresh burst alarms again.
	s.Test(200, "temp", 90)
	s.Test(210, "temp", 90)
	s.Test(220, "temp", 90)
	if len(alarms) != 2 {
		t.Fatalf("second episode missing: %v", alarms)
	}
}

func TestSuiteEscalationWindowExpiry(t *testing.T) {
	var alarms int
	s := suiteWithMonitors(t, WithEscalation(3, 100, 1000, func(Alarm) { alarms++ }))
	s.Test(0, "temp", 50)
	// Three violations, but spread wider than the window.
	s.Test(10, "temp", 90)
	s.Test(120, "temp", 90)
	s.Test(260, "temp", 90)
	if alarms != 0 {
		t.Fatalf("alarm despite sparse violations")
	}
}

func TestSuiteStats(t *testing.T) {
	s := suiteWithMonitors(t)
	s.Test(0, "temp", 50)
	s.Test(1, "temp", 90)
	s.Test(2, "mode", 0)
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Sorted by name: mode before temp.
	if stats[0].Name != "mode" || stats[1].Name != "temp" {
		t.Fatalf("order = %v, %v", stats[0].Name, stats[1].Name)
	}
	if stats[1].Tests != 2 || stats[1].Violations != 1 {
		t.Errorf("temp stats = %+v", stats[1])
	}
	if stats[0].Class != DiscreteSequentialLinear {
		t.Errorf("mode class = %v", stats[0].Class)
	}
}
