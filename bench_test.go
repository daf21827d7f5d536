package easig_test

import (
	"testing"

	"easig"
	"easig/internal/core"
	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/memory"
	"easig/internal/target"
)

// Benchmarks regenerating the paper's tables and figures, plus
// micro-benchmarks of the mechanisms and ablation benchmarks for the
// design choices called out in DESIGN.md. Campaign benchmarks run
// scaled-down protocols (one test case, shortened observation window);
// cmd/fic runs the full-paper versions.

// --- Mechanism micro-benchmarks (Tables 2 and 3 as algorithms) ---

func BenchmarkAssertionContinuous(b *testing.B) {
	p := easig.Continuous{Min: 0, Max: 17000, Incr: easig.Rate{Min: 0, Max: 800}, Decr: easig.Rate{Min: 0, Max: 800}}
	prev := int64(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := prev + int64(i%7) - 3
		if _, ok := easig.CheckContinuous(p, prev, s); ok {
			prev = s
		}
	}
}

func BenchmarkAssertionContinuousWrap(b *testing.B) {
	p := easig.Continuous{Min: 0, Max: 60000, Incr: easig.Rate{Min: 1, Max: 1}, Wrap: true}
	prev := int64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		next := prev + 1
		if next == 60000 {
			next = 0
		}
		easig.CheckContinuous(p, prev, next)
		prev = next
	}
}

func BenchmarkAssertionDiscrete(b *testing.B) {
	p := easig.NewLinear([]int64{0, 1, 2, 3, 4, 5, 6}, true, false)
	p.Contains(0) // build the lookup index outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	prev := int64(0)
	for i := 0; i < b.N; i++ {
		next := (prev + 1) % 7
		easig.CheckDiscrete(p, true, prev, next)
		prev = next
	}
}

func BenchmarkMonitorTest(b *testing.B) {
	m, err := easig.NewContinuousMonitor("bench", easig.ContinuousRandom,
		easig.Continuous{Min: 0, Max: 17000, Incr: easig.Rate{Min: 0, Max: 800}, Decr: easig.Rate{Min: 0, Max: 800}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Test(int64(i), int64(5000+i%11))
	}
}

func BenchmarkMemoryVar16(b *testing.B) {
	mem, err := memory.New(memory.RegionSpec{Name: "ram", Base: 0, Size: 417})
	if err != nil {
		b.Fatal(err)
	}
	v := memory.MustBind(mem, "x", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Set(uint16(i))
		if v.Get() != uint16(i) {
			b.Fatal("round trip failed")
		}
	}
}

// --- Target benchmarks (Figures 5/6: the instrumented system) ---

func BenchmarkArrestmentStepMs(b *testing.B) {
	sys, err := easig.NewArrestingSystem(easig.ArrestingSystemConfig{
		TestCase: easig.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  easig.VersionAll,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepMs()
	}
}

func BenchmarkArrestmentGoldenRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := easig.Run(easig.RunConfig{
			TestCase:      easig.TestCase{MassKg: 14000, VelocityMS: 55},
			Version:       easig.VersionAll,
			ObservationMs: 12000,
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed || res.Detected {
			b.Fatal("golden run not clean")
		}
	}
}

// --- Snapshot/fast-forward engine benchmarks (one-shot go test
// readings; the repeated-sample measurements of the same paths are the
// target.* and inject.* rows of `bash benchmark/run.sh --trace 1`, see
// benchmark/README.md) ---

// BenchmarkSnapshotCaptureRestore measures one checkpoint cycle: a
// full capture of the target (417 B RAM + 1008 B stack per node,
// dispatcher and monitor state, link, plant) followed by a restore.
func BenchmarkSnapshotCaptureRestore(b *testing.B) {
	sys, err := target.NewSystem(target.SystemConfig{
		TestCase: easig.TestCase{MassKg: 14000, VelocityMS: 55},
		Seed:     1,
		Version:  target.VersionAll,
		Recovery: core.NoRecovery{},
	})
	if err != nil {
		b.Fatal(err)
	}
	sys.RunMs(500)
	var st target.SystemState
	sys.Capture(&st) // warm the buffers outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Capture(&st)
		if err := sys.Restore(&st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineErrorRun measures one fast-forwarded error run: clone
// the nominal snapshot, inject until the outcome settles, derive all
// eight version builds from the single profile run. One iteration
// therefore yields eight campaign runs; the derived-runs/op metric
// makes that explicit.
func BenchmarkEngineErrorRun(b *testing.B) {
	eng, err := inject.NewEngine(inject.RunConfig{
		TestCase:      easig.TestCase{MassKg: 14000, VelocityMS: 55},
		ObservationMs: 16000,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	errors := easig.BuildE1()
	versions := target.Versions()
	out := make([]inject.RunResult, len(versions))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunError(errors[i%len(errors)], versions, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(versions)), "derived-runs/op")
}

// BenchmarkCampaignE1Snapshot, BenchmarkCampaignE1Literal and
// BenchmarkCampaignE1Memo run the same scaled E1 campaign (one test
// case, all eight versions, 16 s window) under each engine mode. The
// snapshot/literal ns/op ratio is the fast-forward speedup; memo adds
// liveness pruning and outcome memoization on top.
func benchScaledE1(b *testing.B, mode easig.EngineMode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := easig.RunE1(easig.CampaignConfig{
			Spec: easig.CampaignSpec{Grid: 1, Seed: 1, ObservationMs: 16000},
			Exec: easig.CampaignExec{Mode: mode},
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Runs != 112*8 {
			b.Fatalf("unexpected run count %d", r.Runs)
		}
	}
}

func BenchmarkCampaignE1Snapshot(b *testing.B) { benchScaledE1(b, easig.EngineSnapshot) }
func BenchmarkCampaignE1Literal(b *testing.B)  { benchScaledE1(b, easig.EngineLiteral) }
func BenchmarkCampaignE1Memo(b *testing.B)     { benchScaledE1(b, easig.EngineMemo) }

// --- Table benchmarks ---

// BenchmarkTable6BuildE1 regenerates the Table 6 error set.
func BenchmarkTable6BuildE1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(easig.BuildE1()); got != 112 {
			b.Fatal("wrong error count")
		}
	}
}

// scaledE1 is the shared scaled-down E1 protocol for table benchmarks.
func scaledE1(seed int64, versions ...easig.Version) easig.CampaignConfig {
	return easig.CampaignConfig{
		Spec: easig.CampaignSpec{
			Grid:          1,
			Seed:          seed,
			ObservationMs: 6000,
			Versions:      versions,
		},
	}
}

// BenchmarkTable7E1Campaign regenerates Table 7 (scaled: one test
// case, All version, 6-second window) and reports the headline
// coverage as custom metrics.
func BenchmarkTable7E1Campaign(b *testing.B) {
	var last *easig.E1Result
	for i := 0; i < b.N; i++ {
		r, err := easig.RunE1(scaledE1(int64(i), easig.VersionAll))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		cov := last.TotalCoverage(0)
		b.ReportMetric(cov.All.Percent(), "Pd-%")
		if cov.Fail.Valid() {
			b.ReportMetric(cov.Fail.Percent(), "Pd|fail-%")
		}
	}
}

// BenchmarkTable8Latency regenerates Table 8's aggregation from one
// scaled campaign and reports the All-version average latency.
func BenchmarkTable8Latency(b *testing.B) {
	r, err := easig.RunE1(scaledE1(1, easig.VersionAll))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if easig.Table8(r) == "" {
			b.Fatal("empty table")
		}
	}
	if avg, ok := r.TotalLatency(0).Average(); ok {
		b.ReportMetric(avg, "latency-ms")
	}
}

// BenchmarkTable9E2Campaign regenerates Table 9 (scaled: one test
// case, 32 random errors).
func BenchmarkTable9E2Campaign(b *testing.B) {
	var last *easig.E2Result
	for i := 0; i < b.N; i++ {
		r, err := easig.RunE2(easig.CampaignConfig{
			Spec: easig.CampaignSpec{
				Grid:          1,
				Seed:          int64(i),
				ObservationMs: 6000,
				E2:            inject.E2Spec{RAM: 24, Stack: 8},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		cov, _, _ := last.Total()
		b.ReportMetric(cov.All.Percent(), "Pd-%")
	}
}

// BenchmarkFigure2Traces regenerates the Figure 2 example signals.
func BenchmarkFigure2Traces(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if easig.Figure2(72, 12, int64(i)) == "" {
			b.Fatal("empty figure")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// ablationErrors is a small fixed error subset: one mid and one high
// bit of each monitored signal.
func ablationErrors() []easig.InjectionError {
	var out []easig.InjectionError
	for i, e := range easig.BuildE1() {
		if bit := i % 16; bit == 9 || bit == 14 {
			out = append(out, e)
		}
	}
	return out
}

// runAblation executes the subset against one test case and reports
// detection and failure rates as custom metrics.
func runAblation(b *testing.B, recovery easig.RecoveryPolicy, periodMs int64, version easig.Version) {
	b.Helper()
	var det, fail, runs int
	for i := 0; i < b.N; i++ {
		for _, e := range ablationErrors() {
			e := e
			res, err := easig.Run(easig.RunConfig{
				TestCase:      easig.TestCase{MassKg: 8000, VelocityMS: 70},
				Version:       version,
				Error:         &e,
				Policy:        inject.Policy{StartMs: 500, PeriodMs: periodMs},
				ObservationMs: 6000,
				Seed:          int64(i),
				Recovery:      recovery,
			})
			if err != nil {
				b.Fatal(err)
			}
			runs++
			if res.Detected {
				det++
			}
			if res.Failed {
				fail++
			}
		}
	}
	b.ReportMetric(float64(det)*100/float64(runs), "detected-%")
	b.ReportMetric(float64(fail)*100/float64(runs), "failed-%")
}

// Recovery ablation: detection-only (the paper's campaigns) versus
// previous-value repair. Repair averts most failures at equal
// detection.
func BenchmarkAblationRecoveryNone(b *testing.B) {
	runAblation(b, easig.NoRecovery{}, 20, easig.VersionAll)
}

func BenchmarkAblationRecoveryPrevious(b *testing.B) {
	runAblation(b, easig.PreviousValue{}, 20, easig.VersionAll)
}

// Injection-period ablation: the paper's 20 ms intermittent model
// versus sparser re-injection.
func BenchmarkAblationPeriod20ms(b *testing.B) {
	runAblation(b, easig.NoRecovery{}, 20, easig.VersionAll)
}

func BenchmarkAblationPeriod200ms(b *testing.B) {
	runAblation(b, easig.NoRecovery{}, 200, easig.VersionAll)
}

// Version ablation: all assertions versus a single one.
func BenchmarkAblationVersionAll(b *testing.B) {
	runAblation(b, easig.NoRecovery{}, 20, easig.VersionAll)
}

func BenchmarkAblationVersionEA1(b *testing.B) {
	runAblation(b, easig.NoRecovery{}, 20, easig.VersionEA1)
}

// --- Experiment infrastructure benchmarks ---

func BenchmarkTableRendering(b *testing.B) {
	r, err := experiment.RunE1(experiment.Config{
		Spec: experiment.Spec{
			Grid: 1, Seed: 1, ObservationMs: 4000,
			Versions: []target.Version{target.VersionAll},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiment.Table7(r) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkCalibrator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cal core.ContinuousCalibrator
		for s := int64(0); s < 1000; s++ {
			cal.Observe(s * 3)
		}
		cal.EndRun()
		if _, _, err := cal.Propose(core.CalibrationOptions{BoundMargin: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Placement ablation: the paper's consumer-side test locations versus
// producer-side placement (DESIGN.md §6). Consumer placement tests a
// value at every use; producer placement only when it is recomputed.
func runPlacementAblation(b *testing.B, placement easig.Placement) {
	b.Helper()
	var det, runs int
	for i := 0; i < b.N; i++ {
		for _, e := range ablationErrors() {
			e := e
			if e.Signal != "SetValue" && e.Signal != "IsValue" && e.Signal != "OutValue" {
				continue
			}
			res, err := easig.Run(easig.RunConfig{
				TestCase:      easig.TestCase{MassKg: 14000, VelocityMS: 55},
				Version:       easig.VersionAll,
				Error:         &e,
				ObservationMs: 6000,
				Seed:          int64(i),
				Placement:     placement,
			})
			if err != nil {
				b.Fatal(err)
			}
			runs++
			if res.Detected {
				det++
			}
		}
	}
	b.ReportMetric(float64(det)*100/float64(runs), "detected-%")
}

func BenchmarkAblationPlacementConsumer(b *testing.B) {
	runPlacementAblation(b, easig.PlacementConsumer)
}

func BenchmarkAblationPlacementProducer(b *testing.B) {
	runPlacementAblation(b, easig.PlacementProducer)
}

// Distributed-instrumentation extension: slave-side assertions catch
// set-point corruption that rides the master-to-slave link, even with
// the master's own assertions disabled.
func BenchmarkExtensionSlaveDetection(b *testing.B) {
	var det, runs int
	for i := 0; i < b.N; i++ {
		for _, e := range ablationErrors() {
			if e.Signal != "SetValue" {
				continue
			}
			slaveRec := &easig.Recorder{}
			sys, err := easig.NewArrestingSystem(easig.ArrestingSystemConfig{
				TestCase:     easig.TestCase{MassKg: 14000, VelocityMS: 55},
				Seed:         int64(i),
				Version:      easig.VersionNone,
				SlaveVersion: easig.VersionEA1,
				SlaveSink:    slaveRec,
			})
			if err != nil {
				b.Fatal(err)
			}
			mem := sys.Master().Memory()
			for ms := int64(0); ms < 6000; ms++ {
				if ms >= 500 && (ms-500)%20 == 0 {
					if err := mem.FlipBit(e.Addr, e.Bit); err != nil {
						b.Fatal(err)
					}
				}
				sys.StepMs()
			}
			runs++
			if slaveRec.Detected() {
				det++
			}
		}
	}
	b.ReportMetric(float64(det)*100/float64(runs), "slave-detected-%")
}
