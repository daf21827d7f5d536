package inject

import (
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
	"easig/internal/target"
)

// probeErrors is the equivalence sweep's error sample: a spread of E1
// signal errors (some detected fast, some never), an E2 sample with
// duplicate draws (exercising the probe memo), and a few exhaustive
// positions that the liveness pass prunes.
func probeErrors(t *testing.T) []Error {
	t.Helper()
	var errs []Error
	for i, e := range BuildE1() {
		if i%9 == 2 {
			errs = append(errs, e)
		}
	}
	errs = append(errs, BuildE2(E2Spec{RAM: 8, Stack: 4}, 77)...)
	ex := BuildExhaustive()
	for i := 0; i < len(ex); i += 1500 {
		errs = append(errs, ex[i])
	}
	return errs
}

// noisyConfig is a case whose fault-free run fires assertions on both
// nodes: 1000 kPa of pressure-sensor noise trips the pressure checks
// within the first few hundred milliseconds. The campaigns never build
// it, but it pins that no runner or probe assumes a detection-free
// nominal run.
func noisyConfig(policy Policy) RunConfig {
	cst := physics.DefaultConstants()
	cst.SensorNoiseKPa = 1000
	return RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Seed:          1,
		ObservationMs: 8000,
		Policy:        policy,
		Constants:     &cst,
	}
}

// TestProbeModesMatchLiteral is the probe's equivalence theorem: for
// every error of the sweep, the snapshot-mode and memo-mode profiles —
// restored snapshots, quiet-window early exits, liveness pruning, memo
// hits — are identical, field by field, to the literal reference (a
// fresh dual-sink system simulated over the full window). This is what
// certifies the quiet window for the slave's streams too. The noisy
// cases fire in the fault-free run, after the first injection (start
// 100 ms) and before it (the default start). The late-start and
// long-period cases inject after the aircraft has stopped: the first
// injection at 15 s, and the fourth at 15.5 s on a 5000 ms period.
func TestProbeModesMatchLiteral(t *testing.T) {
	paper := RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Seed:          12345,
		ObservationMs: engineObsMs,
	}
	late := func(p Policy) RunConfig {
		cfg := paper
		cfg.ObservationMs, cfg.Policy = lateObsMs, p
		return cfg
	}
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"paper", paper},
		{"noisy-start100", noisyConfig(Policy{StartMs: 100, PeriodMs: 20})},
		{"noisy-default", noisyConfig(Policy{})},
		{"late-start", late(Policy{StartMs: 15000, PeriodMs: 20})},
		{"long-period", late(Policy{StartMs: 500, PeriodMs: 5000})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { testProbeModesMatchLiteral(t, c.cfg) })
	}
}

func testProbeModesMatchLiteral(t *testing.T, cfg RunConfig) {
	lit, err := NewProbe(ModeLiteral, cfg)
	if err != nil {
		t.Fatalf("NewProbe(literal): %v", err)
	}
	snap, err := NewProbe(ModeSnapshot, cfg)
	if err != nil {
		t.Fatalf("NewProbe(snapshot): %v", err)
	}
	memo, err := NewProbe(ModeAuto, cfg) // auto resolves to memo
	if err != nil {
		t.Fatalf("NewProbe(auto): %v", err)
	}

	for _, e := range probeErrors(t) {
		want, err := lit.ProfileError(e)
		if err != nil {
			t.Fatalf("literal ProfileError(%s): %v", e.ID, err)
		}
		gotSnap, err := snap.ProfileError(e)
		if err != nil {
			t.Fatalf("snapshot ProfileError(%s): %v", e.ID, err)
		}
		if gotSnap != want {
			t.Errorf("%s: snapshot profile %+v != literal %+v", e.ID, gotSnap, want)
		}
		gotMemo, err := memo.ProfileError(e)
		if err != nil {
			t.Fatalf("memo ProfileError(%s): %v", e.ID, err)
		}
		if gotMemo != want {
			t.Errorf("%s: memo profile %+v != literal %+v", e.ID, gotMemo, want)
		}
	}

	st := memo.Stats()
	if st.Pruned == 0 {
		t.Error("memo probe pruned nothing over an exhaustive sample; liveness layer inactive")
	}
	if st.Errors != st.Simulated+st.Pruned+st.MemoHits {
		t.Errorf("stats don't partition: %+v", st)
	}
}

// TestProbeFromProfileMatchesSelfComputed pins the shared-profile
// construction: a probe fast-forwarded from a ProfileCache profile must
// profile every error identically to a self-computed probe.
func TestProbeFromProfileMatchesSelfComputed(t *testing.T) {
	cfg := RunConfig{
		TestCase:      physics.TestCase{MassKg: 8000, VelocityMS: 70},
		Seed:          7,
		ObservationMs: engineObsMs,
	}
	own, err := NewProbe(ModeMemo, cfg)
	if err != nil {
		t.Fatalf("NewProbe: %v", err)
	}
	cache := NewProfileCache()
	p, err := cache.Get(0, cfg, true)
	if err != nil {
		t.Fatalf("ProfileCache.Get: %v", err)
	}
	shared, err := NewProbeFromProfile(ModeMemo, p)
	if err != nil {
		t.Fatalf("NewProbeFromProfile: %v", err)
	}
	for _, e := range probeErrors(t) {
		a, err := own.ProfileError(e)
		if err != nil {
			t.Fatalf("own ProfileError(%s): %v", e.ID, err)
		}
		b, err := shared.ProfileError(e)
		if err != nil {
			t.Fatalf("shared ProfileError(%s): %v", e.ID, err)
		}
		if a != b {
			t.Errorf("%s: shared-profile probe %+v != self-computed %+v", e.ID, b, a)
		}
	}
}

// TestProbeMasterMatchesEngine ties the probe to the campaign engine:
// the probe's master-side first-violation times must reproduce each
// single-EA version's first detection as the engine derives it, and the
// master-side minimum must reproduce the All version's. This is the
// subset-derivation argument of OPTIMIZER.md instantiated for the
// versions the engine can build.
func TestProbeMasterMatchesEngine(t *testing.T) {
	cfg := RunConfig{
		TestCase:      physics.TestCase{MassKg: 20000, VelocityMS: 40},
		Seed:          4242,
		ObservationMs: engineObsMs,
	}
	probe, err := NewProbe(ModeSnapshot, cfg)
	if err != nil {
		t.Fatalf("NewProbe: %v", err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	versions := target.Versions()
	out := make([]RunResult, len(versions))
	for i, e := range BuildE1() {
		if i%5 != 0 {
			continue
		}
		prof, err := probe.ProfileError(e)
		if err != nil {
			t.Fatalf("ProfileError(%s): %v", e.ID, err)
		}
		if err := eng.RunError(e, versions, out); err != nil {
			t.Fatalf("RunError(%s): %v", e.ID, err)
		}
		for vi, v := range versions {
			if v == target.VersionAll {
				continue
			}
			k := int(v) - 1
			if out[vi].Detected != (prof.Master[k] >= 0) {
				t.Errorf("%s EA%d: engine detected=%v, probe master[%d]=%d", e.ID, k+1, out[vi].Detected, k, prof.Master[k])
				continue
			}
			if out[vi].Detected && out[vi].FirstDetectionMs != prof.Master[k] {
				t.Errorf("%s EA%d: engine first %d, probe %d", e.ID, k+1, out[vi].FirstDetectionMs, prof.Master[k])
			}
		}
		// All = min over the master row.
		allFirst := int64(-1)
		for _, ft := range prof.Master {
			if ft >= 0 && (allFirst < 0 || ft < allFirst) {
				allFirst = ft
			}
		}
		allIdx := len(versions) - 1
		if versions[allIdx] != target.VersionAll {
			t.Fatal("expected All last in target.Versions()")
		}
		if out[allIdx].Detected != (allFirst >= 0) {
			t.Errorf("%s All: engine detected=%v, probe min=%d", e.ID, out[allIdx].Detected, allFirst)
		} else if out[allIdx].Detected && out[allIdx].FirstDetectionMs != allFirst {
			t.Errorf("%s All: engine first %d, probe min %d", e.ID, out[allIdx].FirstDetectionMs, allFirst)
		}
	}
}

// TestProbeRejectsActiveRecovery pins the detection-only precondition.
func TestProbeRejectsActiveRecovery(t *testing.T) {
	cfg := RunConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Recovery: core.PreviousValue{},
	}
	if _, err := NewProbe(ModeAuto, cfg); err == nil {
		t.Fatal("NewProbe accepted an active recovery policy")
	}
}
