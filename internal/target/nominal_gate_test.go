package target

import (
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
)

// The §3.4 nominal gate: all 25 test cases of the paper's grid (mass
// 8000..20000 kg x velocity 40..70 m/s) must complete fault-free — the
// aircraft stops inside the runway within the 40 s observation window,
// with zero assertion violations on the master and the slave node and
// zero arrestment failures on the fully instrumented build.
func TestNominalGate25Cases(t *testing.T) {
	cases := physics.Grid(5)
	if len(cases) != 25 {
		t.Fatalf("Grid(5) = %d cases, want 25", len(cases))
	}
	for _, tc := range cases {
		master, slave := &core.Recorder{}, &core.Recorder{}
		sys, err := NewSystem(SystemConfig{TestCase: tc, Version: VersionAll, Sink: master, SlaveSink: slave})
		if err != nil {
			t.Fatalf("%.0f kg at %.1f m/s: %v", tc.MassKg, tc.VelocityMS, err)
		}
		for ms := 0; ms < 40000; ms++ {
			sys.StepMs()
			if _, stopped := sys.Env().Stopped(); stopped {
				break
			}
		}
		env := sys.Env()
		if _, stopped := env.Stopped(); !stopped {
			t.Errorf("%.0f kg at %.1f m/s: did not stop (%.1f m)", tc.MassKg, tc.VelocityMS, env.Distance())
		}
		if _, failed := env.Failure(); failed {
			t.Errorf("%.0f kg at %.1f m/s: arrestment failure", tc.MassKg, tc.VelocityMS)
		}
		if n := master.Count() + slave.Count(); n != 0 {
			t.Errorf("%.0f kg at %.1f m/s: %d master and %d slave false detections",
				tc.MassKg, tc.VelocityMS, master.Count(), slave.Count())
		}
		if env.Distance() >= 335 {
			t.Errorf("%.0f kg at %.1f m/s: overran the runway (%.1f m)", tc.MassKg, tc.VelocityMS, env.Distance())
		}
	}
}
