package inject

import (
	"reflect"
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
	"easig/internal/target"
)

func TestGoldenRunClean(t *testing.T) {
	res, err := Run(RunConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  target.VersionAll,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.Failed {
		t.Fatalf("golden run: detected=%v failed=%v", res.Detected, res.Failed)
	}
	if !res.Stopped || res.DistanceM >= 335 {
		t.Fatalf("golden run: stopped=%v d=%.1f", res.Stopped, res.DistanceM)
	}
	if res.Injections != 0 {
		t.Fatalf("golden run injected %d times", res.Injections)
	}
}

func TestRunInjectionSchedule(t *testing.T) {
	e := BuildE1()[0] // SetValue bit 0: harmless enough to run long
	res, err := Run(RunConfig{
		TestCase:        physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:         target.VersionNone,
		Error:           &e,
		Policy:          Policy{StartMs: 100, PeriodMs: 50},
		ObservationMs:   1000,
		Seed:            1,
		FullObservation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Injections at 100, 150, ..., 950: 18 of them.
	if res.Injections != 18 {
		t.Fatalf("injections = %d, want 18", res.Injections)
	}
}

func TestRunDetectsCounterError(t *testing.T) {
	// mscnt is the sixth signal; any of its bits is detected almost
	// immediately by EA6 (the paper's 100% column).
	var e Error
	for _, cand := range BuildE1() {
		if cand.Signal == target.SigMsCnt {
			e = cand
			break
		}
	}
	res, err := Run(RunConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  target.VersionAll,
		Error:    &e,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("mscnt bit-flip not detected")
	}
	if res.LatencyMs < 0 || res.LatencyMs > 40 {
		t.Errorf("latency = %d ms, want within two injection periods", res.LatencyMs)
	}
	if res.FirstDetectionMs < 500 {
		t.Errorf("first detection at %d ms, before the first injection", res.FirstDetectionMs)
	}
}

func TestRunVersionGatesDetection(t *testing.T) {
	// An mscnt error is invisible to a version with only EA1.
	var e Error
	for _, cand := range BuildE1() {
		if cand.Signal == target.SigMsCnt && cand.Bit == 0 {
			e = cand
			break
		}
	}
	res, err := Run(RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:       target.VersionEA1,
		Error:         &e,
		ObservationMs: 4000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("EA1-only version detected an mscnt LSB error within 4 s")
	}
}

func TestRunRecoveryAblation(t *testing.T) {
	// A high bit of SetValue on a light aircraft: detection-only lets
	// the corrupt set point drive the drums (failure); PreviousValue
	// recovery repairs it and the arrestment succeeds.
	var e Error
	for _, cand := range BuildE1() {
		if cand.Signal == target.SigSetValue && cand.Bit == 6 && cand.Addr%2 == 0 { // word bit 14
			e = cand
			break
		}
	}
	tc := physics.TestCase{MassKg: 8000, VelocityMS: 55}

	detOnly, err := Run(RunConfig{TestCase: tc, Version: target.VersionAll, Error: &e, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !detOnly.Detected {
		t.Fatal("bit-14 SetValue error not detected")
	}
	if !detOnly.Failed {
		t.Fatal("detection-only run should fail: full pressure on a light aircraft")
	}

	recovered, err := Run(RunConfig{
		TestCase: tc, Version: target.VersionAll, Error: &e, Seed: 2,
		Recovery:        core.PreviousValue{},
		FullObservation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Detected {
		t.Fatal("recovery run must still detect")
	}
	if recovered.Failed {
		t.Errorf("recovery run failed: %v", recovered.Failure)
	}
}

// TestRunRecoveryUniformBuild pins that a run builds the slave with the
// master's version: a version repairs only through its own assertions.
// Under VersionNone no node has an assertion, so PreviousValue recovery
// must leave the whole run exactly as detection-only leaves it. A slave
// built with every assertion would repair the corrupt set point it
// receives over the link and move the plant.
func TestRunRecoveryUniformBuild(t *testing.T) {
	var e Error
	for _, cand := range BuildE1() {
		if cand.Signal == target.SigSetValue && cand.Bit == 6 && cand.Addr%2 == 0 { // word bit 14
			e = cand
			break
		}
	}
	cfg := RunConfig{
		TestCase: physics.TestCase{MassKg: 8000, VelocityMS: 55},
		Version:  target.VersionNone, Error: &e, Seed: 2, FullObservation: true,
	}
	detOnly, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recovery = core.PreviousValue{}
	recovered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered, detOnly) {
		t.Errorf("recovery changed a run without assertions:\n got %+v\nwant %+v", recovered, detOnly)
	}
}

func TestRunEarlyExitMatchesFullOutcome(t *testing.T) {
	var e Error
	for _, cand := range BuildE1() {
		if cand.Signal == target.SigPulsCnt && cand.Bit == 7 {
			e = cand
			break
		}
	}
	base := RunConfig{
		TestCase: physics.TestCase{MassKg: 17000, VelocityMS: 62.5},
		Version:  target.VersionAll,
		Error:    &e,
		Seed:     4,
	}
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.FullObservation = true
	slow, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign readouts must agree between the two modes.
	if fast.Detected != slow.Detected || fast.Failed != slow.Failed ||
		fast.LatencyMs != slow.LatencyMs || fast.FirstDetectionMs != slow.FirstDetectionMs {
		t.Errorf("early-exit run diverged: fast=%+v slow=%+v", fast, slow)
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.PeriodMs != 20 {
		t.Errorf("period = %d ms, want the paper's 20", p.PeriodMs)
	}
	if DefaultObservationMs != 40000 {
		t.Error("observation period deviates from the paper's 40 s")
	}
}

// Each executable assertion, enabled alone, detects a high-bit error
// in its own monitored signal (the boldface diagonal of the paper's
// Table 7).
func TestEAMatrixDiagonal(t *testing.T) {
	errors := BuildE1()
	for sig := 0; sig < target.NumEAs; sig++ {
		// The MSB error of signal sig (bit 15 is the last of its 16).
		e := errors[sig*16+15]
		res, err := Run(RunConfig{
			TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
			Version:       target.Version(sig + 1),
			Error:         &e,
			ObservationMs: 10000,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Errorf("EA%d did not detect the MSB error in %s", sig+1, e.Signal)
		}
	}
}

// With every assertion disabled, no error is ever detected (the pin
// stays low): detection really comes from the mechanisms, not from the
// harness.
func TestNoVersionNoDetection(t *testing.T) {
	errors := BuildE1()
	for _, idx := range []int{15, 47, 95} { // SetValue, i, mscnt MSBs
		e := errors[idx]
		res, err := Run(RunConfig{
			TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
			Version:       target.VersionNone,
			Error:         &e,
			ObservationMs: 6000,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Errorf("detection with all assertions disabled (%s)", e.ID)
		}
	}
}
