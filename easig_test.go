package easig_test

import (
	"testing"

	"easig"
)

// The facade tests exercise the library exactly as a downstream user
// would: only through the public package.

func TestPublicMonitorFlow(t *testing.T) {
	var detected []easig.Violation
	m, err := easig.NewContinuousMonitor("speed", easig.ContinuousRandom,
		easig.Continuous{
			Min: 0, Max: 300,
			Incr: easig.Rate{Min: 0, Max: 5},
			Decr: easig.Rate{Min: 0, Max: 5},
		},
		easig.WithRecovery(easig.PreviousValue{}),
		easig.WithSink(easig.SinkFunc(func(v easig.Violation) { detected = append(detected, v) })),
	)
	if err != nil {
		t.Fatal(err)
	}
	m.Test(0, 100)
	accepted, violation := m.Test(1, 250)
	if violation == nil || violation.Test != easig.TestIncrease {
		t.Fatalf("violation = %v", violation)
	}
	if accepted != 100 {
		t.Fatalf("accepted = %d, want recovery to 100", accepted)
	}
	if len(detected) != 1 {
		t.Fatalf("sink received %d violations", len(detected))
	}
}

func TestPublicDiscreteFlow(t *testing.T) {
	m, err := easig.NewDiscreteMonitor("gear", easig.DiscreteSequentialLinear,
		easig.NewLinear([]int64{0, 1, 2, 3}, false, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []int64{0, 0, 1, 2, 2, 3} {
		if _, v := m.Test(int64(i), s); v != nil {
			t.Fatalf("legal gear sequence flagged at %d: %v", i, v)
		}
	}
	if _, v := m.Test(9, 1); v == nil {
		t.Fatal("gear regression not flagged")
	}
}

func TestPublicClasses(t *testing.T) {
	c, err := easig.ParseClass("Co/Mo/St")
	if err != nil || c != easig.ContinuousMonotonicStatic {
		t.Fatalf("ParseClass = (%v, %v)", c, err)
	}
}

func TestPublicCalibration(t *testing.T) {
	var cal easig.ContinuousCalibrator
	for i := int64(0); i < 50; i++ {
		cal.Observe(i * 2)
	}
	cal.EndRun()
	p, class, err := cal.Propose(easig.CalibrationOptions{BoundMargin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if class != easig.ContinuousMonotonicStatic {
		t.Errorf("class = %v", class)
	}
	if p.Max < 98 {
		t.Errorf("params = %v", p)
	}
}

func TestPublicReproductionRun(t *testing.T) {
	res, err := easig.Run(easig.RunConfig{
		TestCase: easig.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  easig.VersionAll,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.Failed || !res.Stopped {
		t.Fatalf("golden run through the facade: %+v", res)
	}
}

func TestPublicErrorSets(t *testing.T) {
	if got := len(easig.BuildE1()); got != 112 {
		t.Errorf("E1 size = %d", got)
	}
}

func TestPublicArrestingSystem(t *testing.T) {
	sys, err := easig.NewArrestingSystem(easig.ArrestingSystemConfig{
		TestCase: easig.TestCase{MassKg: 12000, VelocityMS: 50},
		Version:  easig.VersionAll,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunMs(2000)
	if sys.Env().Distance() <= 0 {
		t.Error("aircraft did not move")
	}
	if sys.Master().Vars().SetValue.Get() == 0 {
		t.Error("controller produced no set point")
	}
}
