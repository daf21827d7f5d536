package inject

import (
	"reflect"
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
	"easig/internal/target"
)

// engineObsMs gives the equivalence sweeps a window long enough to
// exercise the quiet-window exit (the nominal stop is near 10.5 s)
// while staying far cheaper than the paper's 40 s.
const engineObsMs = 16000

// TestEngineMatchesRun is the run-level equivalence theorem of the
// fast-forward engine: for a sweep of E1 and E2 errors, the per-version
// results derived from one all-assertions profile run are identical,
// field by field, to from-scratch inject.Run executions — including the
// early-exit-truncated detection counts, injections and plant readouts.
// Besides the paper schedule it covers a first injection after the
// aircraft has stopped (late-start) and a period too long for the quiet
// window to see both phases of the re-applied flip (long-period).
func TestEngineMatchesRun(t *testing.T) {
	tc := physics.TestCase{MassKg: 14000, VelocityMS: 55}
	t.Run("paper", func(t *testing.T) {
		var errs []Error
		for i, e := range BuildE1() {
			if i%7 == 3 {
				errs = append(errs, e)
			}
		}
		errs = append(errs, BuildE2(E2Spec{RAM: 6, Stack: 4}, 99)...)
		testEngineMatchesRun(t, RunConfig{TestCase: tc, Seed: 12345, ObservationMs: engineObsMs}, errs)
	})
	for _, c := range []struct {
		name   string
		policy Policy
	}{
		{"late-start", Policy{StartMs: 15000, PeriodMs: 20}},
		{"long-period", Policy{StartMs: 500, PeriodMs: 5000}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := RunConfig{TestCase: tc, Seed: 12345, ObservationMs: lateObsMs, Policy: c.policy}
			testEngineMatchesRun(t, cfg, lateErrors())
		})
	}
}

// lateObsMs is the window of the late-start and long-period protocols:
// it holds the fourth 5000 ms injection and 5 s after a 15 s start.
const lateObsMs = 20000

// lateErrors is a few E1 errors for the late-start and long-period
// protocols, some of which only the injections after the stop detect.
func lateErrors() []Error {
	var errs []Error
	for i, e := range BuildE1() {
		if i%8 == 5 {
			errs = append(errs, e)
		}
	}
	return errs
}

func testEngineMatchesRun(t *testing.T, cfg RunConfig, errs []Error) {
	versions := target.Versions()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	out := make([]RunResult, len(versions))
	for _, e := range errs {
		if err := eng.RunError(e, versions, out); err != nil {
			t.Fatalf("RunError(%s): %v", e.ID, err)
		}
		for vi, v := range versions {
			rcfg := cfg
			rcfg.Version = v
			ecopy := e
			rcfg.Error = &ecopy
			want, err := Run(rcfg)
			if err != nil {
				t.Fatalf("Run(%s, %v): %v", e.ID, v, err)
			}
			if !reflect.DeepEqual(out[vi], want) {
				t.Errorf("%s version %v:\n engine %+v\n  fresh %+v", e.ID, v, out[vi], want)
			}
		}
	}
}

// TestEngineLatencyNotTruncated spot-checks that the engine's early
// exits never clip a detection latency: for every detected (error,
// version) the first-detection time and latency equal those of a
// full-observation run, which has no early exit at all.
func TestEngineLatencyNotTruncated(t *testing.T) {
	tc := physics.TestCase{MassKg: 8000, VelocityMS: 70}
	versions := []target.Version{target.VersionAll, target.VersionEA2, target.VersionEA6}
	cfg := RunConfig{TestCase: tc, Seed: 7, ObservationMs: engineObsMs}

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	out := make([]RunResult, len(versions))
	errs := BuildE1()
	detected := 0
	for i := 0; i < len(errs); i += 11 {
		e := errs[i]
		if err := eng.RunError(e, versions, out); err != nil {
			t.Fatalf("RunError(%s): %v", e.ID, err)
		}
		for vi, v := range versions {
			rcfg := cfg
			rcfg.Version = v
			ecopy := e
			rcfg.Error = &ecopy
			rcfg.FullObservation = true
			full, err := Run(rcfg)
			if err != nil {
				t.Fatalf("Run(%s, %v): %v", e.ID, v, err)
			}
			if out[vi].Detected != full.Detected {
				t.Errorf("%s %v: engine detected=%v, full observation %v", e.ID, v, out[vi].Detected, full.Detected)
				continue
			}
			if !full.Detected {
				continue
			}
			detected++
			if out[vi].FirstDetectionMs != full.FirstDetectionMs || out[vi].LatencyMs != full.LatencyMs {
				t.Errorf("%s %v: engine first=%d latency=%d, full observation first=%d latency=%d",
					e.ID, v, out[vi].FirstDetectionMs, out[vi].LatencyMs, full.FirstDetectionMs, full.LatencyMs)
			}
		}
	}
	if detected == 0 {
		t.Fatal("spot check exercised no detected runs")
	}
}

// TestEngineRejectsRecovery documents the engine's soundness
// precondition: with an active recovery policy the assertion build
// changes the signal trajectory, so per-version derivation from one
// profile run would be wrong and the engine refuses to build.
func TestEngineRejectsRecovery(t *testing.T) {
	_, err := NewEngine(RunConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Recovery: core.PreviousValue{},
	})
	if err == nil {
		t.Fatal("NewEngine accepted an active recovery policy")
	}
}
