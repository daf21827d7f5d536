package target

import (
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
)

// trace samples the observable state that a diverging restore would
// corrupt: plant kinematics, both drums' pressures, and the master's
// monitored signals.
func trace(s *System) [12]float64 {
	v := s.Master().Vars()
	return [12]float64{
		s.Env().Distance(),
		s.Env().Velocity(),
		s.Env().AppliedPressure(0),
		s.Env().AppliedPressure(1),
		s.Env().PeakForce(),
		float64(v.SetValue.Get()),
		float64(v.IsValue.Get()),
		float64(v.I.Get()),
		float64(v.PulsCnt.Get()),
		float64(v.MsCnt.Get()),
		float64(v.OutValue.Get()),
		float64(s.Env().NowMs()),
	}
}

// TestSystemSnapshotRoundTrip proves the snapshot is complete: a system
// restored to a mid-arrestment checkpoint replays the exact trajectory
// it took the first time — including the sensor-noise sequence — and
// matches an identically seeded reference system that never detoured.
func TestSystemSnapshotRoundTrip(t *testing.T) {
	build := func() *System {
		sys, err := NewSystem(SystemConfig{
			TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
			Seed:     42,
			Version:  VersionAll,
			Recovery: core.NoRecovery{},
		})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}

	sys := build()
	ref := build()
	sys.RunMs(2000)
	ref.RunMs(2000)

	var st SystemState
	sys.Capture(&st)

	// Detour: run ahead, then rewind.
	sys.RunMs(1500)
	if trace(sys) == trace(ref) {
		t.Fatal("detour did not change the observable state; trace is too weak")
	}
	if err := sys.Restore(&st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := trace(sys), trace(ref); got != want {
		t.Fatalf("restored state diverged: got %v, want %v", got, want)
	}

	// Replay: the restored system and the reference must stay in
	// lockstep for the rest of the arrestment.
	for i := 0; i < 12000; i++ {
		sys.StepMs()
		ref.StepMs()
		if i%997 == 0 {
			if got, want := trace(sys), trace(ref); got != want {
				t.Fatalf("tick %d after restore: got %v, want %v", i, got, want)
			}
		}
	}
	if got, want := trace(sys), trace(ref); got != want {
		t.Fatalf("final state diverged: got %v, want %v", got, want)
	}

	// Capture is reusable in place: a second capture into the same
	// state must not allocate new buffers.
	before := st.Master.Mem.Len()
	sys.Capture(&st)
	if st.Master.Mem.Len() != before {
		t.Fatalf("recapture changed image size: %d -> %d", before, st.Master.Mem.Len())
	}
}

// TestRestoreRejectsForeignPlant guards against mixing snapshots across
// test cases: the plant refuses a state captured for different physics.
func TestRestoreRejectsForeignPlant(t *testing.T) {
	a, err := NewSystem(SystemConfig{TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(SystemConfig{TestCase: physics.TestCase{MassKg: 8000, VelocityMS: 70}})
	if err != nil {
		t.Fatal(err)
	}
	var st SystemState
	a.Capture(&st)
	if err := b.Restore(&st); err == nil {
		t.Fatal("restore accepted a snapshot from a different test case")
	}
}

// TestCaptureRestoreZeroAlloc gates the checkpoint cycle every snapshot-
// and memo-engine error run starts from: once the state buffers exist,
// capturing into them and restoring from them must not touch the heap.
func TestCaptureRestoreZeroAlloc(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Seed:     1,
		Version:  VersionAll,
		Recovery: core.NoRecovery{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunMs(1000) // past the priming transient
	var st SystemState
	sys.Capture(&st) // sizes the buffers
	avg := testing.AllocsPerRun(200, func() {
		sys.Capture(&st)
		if err := sys.Restore(&st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("capture+restore allocates %.1f objects per cycle, want 0", avg)
	}
}
