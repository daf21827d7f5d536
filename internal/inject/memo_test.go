package inject

import (
	"reflect"
	"testing"

	"easig/internal/core"
	"easig/internal/memory"
	"easig/internal/physics"
	"easig/internal/target"
)

// TestParseModeRoundTrip checks the -engine flag spelling of every mode.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeAuto, ModeLiteral, ModeSnapshot, ModeMemo} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("turbo"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	if m, err := ParseMode(""); err != nil || m != ModeAuto {
		t.Errorf("ParseMode(\"\") = %v, %v; want auto", m, err)
	}
}

// TestModeResolve checks the auto mapping and the recovery guard.
func TestModeResolve(t *testing.T) {
	if m, err := Mode.Resolve(ModeAuto, nil); err != nil || m != ModeSnapshot {
		t.Errorf("auto/nil -> %v, %v; want snapshot", m, err)
	}
	if m, err := Mode.Resolve(ModeAuto, core.NoRecovery{}); err != nil || m != ModeSnapshot {
		t.Errorf("auto/NoRecovery -> %v, %v; want snapshot", m, err)
	}
	if m, err := Mode.Resolve(ModeAuto, core.PreviousValue{}); err != nil || m != ModeLiteral {
		t.Errorf("auto/PreviousValue -> %v, %v; want literal", m, err)
	}
	if _, err := Mode.Resolve(ModeMemo, core.PreviousValue{}); err == nil {
		t.Error("memo mode accepted an active recovery policy")
	}
	if _, err := Mode.Resolve(ModeSnapshot, core.PreviousValue{}); err == nil {
		t.Error("snapshot mode accepted an active recovery policy")
	}
	if m, err := Mode.Resolve(ModeLiteral, core.PreviousValue{}); err != nil || m != ModeLiteral {
		t.Errorf("literal/PreviousValue -> %v, %v; want literal", m, err)
	}
}

// TestExhaustiveSize checks the count that callers use instead of
// building the fault space against the space BuildExhaustive builds.
func TestExhaustiveSize(t *testing.T) {
	if n := len(BuildExhaustive()); ExhaustiveSize != n {
		t.Errorf("ExhaustiveSize = %d, len(BuildExhaustive()) = %d", ExhaustiveSize, n)
	}
}

// TestBuildExhaustive checks the full fault space: 8 bit positions per
// byte of RAM and stack, in region/address/bit order, unique IDs.
func TestBuildExhaustive(t *testing.T) {
	errs := BuildExhaustive()
	want := 8 * (target.RAMSize + target.StackSize)
	if len(errs) != want {
		t.Fatalf("BuildExhaustive: %d errors, want %d", len(errs), want)
	}
	seen := make(map[string]bool, len(errs))
	pos := make(map[[2]uint16]bool, len(errs))
	for _, e := range errs {
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		k := [2]uint16{e.Addr, uint16(e.Bit)}
		if pos[k] {
			t.Fatalf("duplicate position 0x%04x.%d", e.Addr, e.Bit)
		}
		pos[k] = true
		if e.SignalIdx != -1 || e.Signal != "" {
			t.Fatalf("%s: exhaustive errors are not signal errors", e.ID)
		}
	}
	if errs[0].Region != target.RegionRAM || errs[0].Addr != target.RAMBase || errs[0].Bit != 0 {
		t.Errorf("first error %+v is not RAM byte 0 bit 0", errs[0])
	}
	last := errs[len(errs)-1]
	if last.Region != target.RegionStack || last.Addr != target.StackBase+target.StackSize-1 || last.Bit != 7 {
		t.Errorf("last error %+v is not the final stack bit", last)
	}
}

// TestLivenessSemantics drives the pass by hand: only bytes read while
// pending become live; stores clear pending; unmapped addresses are
// conservatively live.
func TestLivenessSemantics(t *testing.T) {
	mem, err := memory.New(
		memory.RegionSpec{Name: "ram", Base: 0x100, Size: 64},
		memory.RegionSpec{Name: "stack", Base: 0x400, Size: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLiveness(mem)
	for _, addr := range []uint16{0x0000, 0x00FF, 0x0300, 0x0440, 0xFFFF} {
		if !l.Live(addr) {
			t.Errorf("unmapped address %#x must be conservatively live", addr)
		}
	}
	l.MarkInjection()
	l.OnAccess(0x100, 2, false) // read while pending -> live
	l.OnAccess(0x110, 2, true)  // write clears pending
	l.OnAccess(0x110, 2, false) // read after write -> stays dead
	l.OnAccess(0x400, 1, true)  // stack write
	if !l.Live(0x100) || !l.Live(0x101) {
		t.Error("read-while-pending bytes must be live")
	}
	if l.Live(0x110) || l.Live(0x111) {
		t.Error("written-before-read bytes must stay dead")
	}
	if l.Live(0x400) {
		t.Error("write-only byte must stay dead")
	}
	if l.Live(0x120) {
		t.Error("untouched byte must stay dead")
	}

	// A later injection epoch re-arms pending: the byte written above
	// becomes live if the next epoch's read precedes a store.
	l.MarkInjection()
	l.OnAccess(0x110, 2, false)
	if !l.Live(0x110) {
		t.Error("read in a later epoch must mark live")
	}
}

// TestMemoRunnerMatchesEngine is the memo/prune equivalence theorem at
// the inject level: over a mixed error set (every E1 error, an E2
// sample with duplicates, and a slice of the exhaustive grid) the memo
// runner's per-version results are identical, field by field, to the
// plain snapshot engine's — and the stats account for every error. The
// noisy case's fault-free run fires after the first injection, so its
// pruned faults carry detections read off the nominal profile.
func TestMemoRunnerMatchesEngine(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"paper", RunConfig{
			TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
			Seed:          12345,
			ObservationMs: engineObsMs,
		}},
		{"noisy-start100", noisyConfig(Policy{StartMs: 100, PeriodMs: 20})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { testMemoRunnerMatchesEngine(t, c.cfg) })
	}
}

func testMemoRunnerMatchesEngine(t *testing.T, cfg RunConfig) {
	versions := target.Versions()

	mr, err := NewMemoRunner(cfg)
	if err != nil {
		t.Fatalf("NewMemoRunner: %v", err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	errs := BuildE1()
	errs = append(errs, BuildE2(E2Spec{RAM: 30, Stack: 10}, 99)...)
	ex := BuildExhaustive()
	for i := 0; i < len(ex); i += 97 {
		errs = append(errs, ex[i])
	}

	got := make([]RunResult, len(versions))
	want := make([]RunResult, len(versions))
	for _, e := range errs {
		if err := mr.RunError(e, versions, got); err != nil {
			t.Fatalf("memo RunError(%s): %v", e.ID, err)
		}
		if err := eng.RunError(e, versions, want); err != nil {
			t.Fatalf("engine RunError(%s): %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n memo   %+v\n engine %+v", e.ID, got, want)
		}
	}

	st := mr.Stats()
	if st.Errors != len(errs) {
		t.Errorf("stats.Errors = %d, want %d", st.Errors, len(errs))
	}
	if st.Simulated+st.Pruned+st.MemoHits != st.Errors {
		t.Errorf("stats do not partition: %+v", st)
	}
	if st.Pruned == 0 {
		t.Error("expected some pruned errors over the exhaustive slice")
	}
	live, tracked := 0, 0
	for _, b := range mr.eng.live.live {
		if b {
			live++
		}
	}
	for _, r := range mr.eng.mem.Regions() {
		tracked += int(r.Size)
	}
	if live == 0 || live == tracked {
		t.Errorf("liveness map degenerate: %d of %d bytes live", live, tracked)
	}
}

// TestMemoRunnerMemoHits checks that repeated (address, bit) positions
// — the with-replacement duplicates of the paper's E2 sampling — are
// served from the memo without re-simulation.
func TestMemoRunnerMemoHits(t *testing.T) {
	tc := physics.TestCase{MassKg: 8000, VelocityMS: 70}
	versions := []target.Version{target.VersionAll, target.VersionNone}
	cfg := RunConfig{TestCase: tc, Seed: 7, ObservationMs: 8000}

	mr, err := NewMemoRunner(cfg)
	if err != nil {
		t.Fatalf("NewMemoRunner: %v", err)
	}
	e1 := BuildE1()
	errs := []Error{e1[0], e1[5], e1[0], e1[5], e1[0]}
	out := make([]RunResult, len(versions))
	first := make([]RunResult, len(versions))
	for i, e := range errs {
		if err := mr.RunError(e, versions, out); err != nil {
			t.Fatalf("RunError(%d): %v", i, err)
		}
		if i == 0 {
			copy(first, out)
		}
		if e.ID == errs[0].ID && !reflect.DeepEqual(out, first) {
			t.Fatalf("repeat of %s diverged:\n got   %+v\n first %+v", e.ID, out, first)
		}
	}
	st := mr.Stats()
	if st.MemoHits != 3 {
		t.Errorf("MemoHits = %d, want 3 (duplicates in %d errors)", st.MemoHits, len(errs))
	}
	if st.Simulated != 2 {
		t.Errorf("Simulated = %d, want 2", st.Simulated)
	}
}

// TestPrunedFaultsAreBenign is the property test behind the pruning
// soundness argument: a sample of liveness-pruned errors is re-run
// under literal from-scratch simulation and must produce, field by
// field, the outcome the memo runner derived from the nominal profile.
func TestPrunedFaultsAreBenign(t *testing.T) {
	tc := physics.TestCase{MassKg: 20000, VelocityMS: 45}
	versions := []target.Version{target.VersionAll, target.VersionEA4, target.VersionNone}
	cfg := RunConfig{TestCase: tc, Seed: 4242, ObservationMs: 8000}

	mr, err := NewMemoRunner(cfg)
	if err != nil {
		t.Fatalf("NewMemoRunner: %v", err)
	}

	// The constructor computed the liveness map; collect pruned positions.
	out := make([]RunResult, len(versions))
	var pruned []Error
	for i, e := range BuildExhaustive() {
		if !mr.eng.live.Live(e.Addr) && i%151 == 0 {
			pruned = append(pruned, e)
		}
	}
	if len(pruned) < 10 {
		t.Fatalf("only %d pruned sample errors; liveness map suspiciously dense", len(pruned))
	}

	for _, e := range pruned {
		before := mr.Stats()
		if err := mr.RunError(e, versions, out); err != nil {
			t.Fatalf("memo RunError(%s): %v", e.ID, err)
		}
		if mr.Stats().Pruned != before.Pruned+1 {
			t.Fatalf("%s was not served by the pruner", e.ID)
		}
		for vi, v := range versions {
			rcfg := cfg
			rcfg.Version = v
			ecopy := e
			rcfg.Error = &ecopy
			lit, lerr := Run(rcfg)
			if lerr != nil {
				t.Fatalf("literal Run(%s, %v): %v", e.ID, v, lerr)
			}
			if !reflect.DeepEqual(out[vi], lit) {
				t.Fatalf("%s version %v not benign:\n pruned  %+v\n literal %+v", e.ID, v, out[vi], lit)
			}
		}
	}
}
