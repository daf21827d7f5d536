package inject

import (
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
	"easig/internal/target"
)

// TestNominalTickZeroAlloc is the allocation gate on the simulator's
// per-tick hot path: once a system is built, stepping it — scheduler
// dispatch, both nodes' control calculations, every executable
// assertion, and the plant integration — must not touch the heap.
// Campaign throughput is ticks/second, so a single allocation here
// costs the full protocol tens of millions of allocations.
func TestNominalTickZeroAlloc(t *testing.T) {
	sys, err := target.NewSystem(target.SystemConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Seed:     1,
		Version:  target.VersionAll,
		Recovery: core.NoRecovery{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunMs(1000) // past the priming transient
	if avg := testing.AllocsPerRun(200, sys.StepMs); avg != 0 {
		t.Fatalf("nominal tick allocates %.1f objects; the hot path must be allocation-free", avg)
	}
}

// TestViolatingTickZeroAlloc extends the gate to the violating path:
// an injected stuck-at error makes an assertion fire on every control
// cycle, and even then stepping must stay heap-free (the monitor's
// violation record is reused storage, the engine's recorder appends
// into retained buffers).
func TestViolatingTickZeroAlloc(t *testing.T) {
	errs := BuildE1()
	e := errs[6*16+14] // a high bit of a monitored signal: violates persistently
	eng, err := NewEngine(RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		ObservationMs: engineObsMs,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := target.Versions()
	out := make([]RunResult, len(versions))
	// Warm-up: lets the recorder streams and capture buffers reach
	// their steady-state capacity.
	if err := eng.RunError(e, versions, out); err != nil {
		t.Fatal(err)
	}
	ticks := 2048
	avg := testing.AllocsPerRun(3, func() {
		if err := eng.rewind(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ticks; i++ {
			if (i % int(eng.policy.PeriodMs)) == 0 {
				if err := e.Apply(eng.mem); err != nil {
					t.Fatal(err)
				}
			}
			eng.step()
		}
	})
	if perTick := avg / float64(ticks); perTick != 0 {
		t.Fatalf("violating run allocates %.2f objects/tick over %d ticks; want 0", perTick, ticks)
	}
}

// TestEngineErrorRunZeroAlloc gates the full per-error serving path —
// Engine.RunError with every version derived from one all-assertions
// profile — at zero allocations per run. The campaign calls this tens
// of thousands of times per experiment; the engine recycles the ByTest
// maps it finds in the caller's out slice (see RunError's reuse
// contract), so a steady-state caller that hands the same slice back
// never touches the heap.
func TestEngineErrorRunZeroAlloc(t *testing.T) {
	eng, err := NewEngine(RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		ObservationMs: engineObsMs,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := BuildE1()
	versions := target.Versions()
	out := make([]RunResult, len(versions))
	// Warm-up over a spread of errors so every recorder stream, capture
	// buffer and the ByTest map pool reach steady-state capacity.
	for i := 0; i < len(errs); i += 7 {
		if err := eng.RunError(errs[i], versions, out); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(10, func() {
		if err := eng.RunError(errs[(i*7)%len(errs)], versions, out); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("engine error run allocates %.1f objects; want 0", avg)
	}
}
