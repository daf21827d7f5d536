package physics

import (
	"math"
	"testing"
)

func newTestEnv(t *testing.T, tc TestCase, seed int64) *Env {
	t.Helper()
	e, err := NewEnv(DefaultConstants(), DefaultForceTable(), tc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(DefaultConstants(), DefaultForceTable(), TestCase{}, 0); err == nil {
		t.Error("zero test case accepted")
	}
	bad := DefaultForceTable()
	bad.Masses = bad.Masses[:1]
	if _, err := NewEnv(DefaultConstants(), bad, TestCase{MassKg: 10000, VelocityMS: 50}, 0); err == nil {
		t.Error("invalid force table accepted")
	}
}

func TestFreeRollWithoutPressure(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 10000, VelocityMS: 50}, 1)
	for i := 0; i < 1000; i++ {
		e.StepMs()
	}
	// No commanded pressure: no force, no deceleration, one meter of
	// travel per 20 ms at 50 m/s.
	if v := e.Velocity(); v != 50 {
		t.Errorf("velocity = %g, want unchanged 50", v)
	}
	if d := e.Distance(); math.Abs(d-50) > 0.5 {
		t.Errorf("distance after 1 s = %g, want ~50", d)
	}
	if f, failed := e.Failure(); failed {
		t.Errorf("unexpected failure %v before reaching the runway limit", f)
	}
}

func TestValveFirstOrderLag(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 20000, VelocityMS: 40}, 1)
	e.CommandValve(DrumMaster, 1000) // 10 MPa in 10 kPa counts
	prev := 0.0
	for i := 0; i < 150; i++ { // one time constant (150 ms)
		e.StepMs()
		e.CommandValve(DrumMaster, 1000) // keep the watchdog fed
		p := e.AppliedPressure(DrumMaster)
		if p < prev {
			t.Fatalf("pressure not monotone during step response at %d ms", i)
		}
		prev = p
	}
	p := e.AppliedPressure(DrumMaster)
	// After one time constant the first-order response reaches ~63%.
	if p < 0.55*10000 || p > 0.70*10000 {
		t.Errorf("pressure after one tau = %.0f kPa, want ~6300", p)
	}
	if e.AppliedPressure(DrumSlave) != 0 {
		t.Error("slave drum pressurised without a command")
	}
}

func TestValveWatchdogReleases(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 20000, VelocityMS: 40}, 1)
	e.CommandValve(DrumMaster, 1000)
	for i := 0; i < 400; i++ {
		e.StepMs() // no refresh: the dead-man releases after 50 ms
	}
	if p := e.AppliedPressure(DrumMaster); p > 1000 {
		t.Errorf("pressure %.0f kPa still applied after watchdog window", p)
	}
}

func TestRotationPulses(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 10000, VelocityMS: 60}, 1)
	for i := 0; i < 2000; i++ {
		e.StepMs()
	}
	// 2 s at 60 m/s = 120 m = 1200 pulses at 10 pulses/m.
	got := int64(e.RotationPulses())
	if got < 1190 || got > 1210 {
		t.Errorf("pulses after 2 s = %d, want ~1200", got)
	}
}

func TestPressureSensorNoiseBounded(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 10000, VelocityMS: 60}, 7)
	e.CommandValve(DrumMaster, 800)
	for i := 0; i < 600; i++ {
		e.StepMs()
		e.CommandValve(DrumMaster, 800)
	}
	truth := e.AppliedPressure(DrumMaster) / PressureUnitKPa
	for i := 0; i < 50; i++ {
		r := float64(e.ReadPressure(DrumMaster))
		if math.Abs(r-truth) > DefaultConstants().SensorNoiseKPa/PressureUnitKPa+1 {
			t.Fatalf("reading %g deviates from truth %g beyond the noise bound", r, truth)
		}
	}
}

func TestSensorDeterminism(t *testing.T) {
	a := newTestEnv(t, TestCase{MassKg: 12000, VelocityMS: 55}, 99)
	b := newTestEnv(t, TestCase{MassKg: 12000, VelocityMS: 55}, 99)
	for i := 0; i < 300; i++ {
		a.CommandValve(0, 500)
		b.CommandValve(0, 500)
		a.StepMs()
		b.StepMs()
		if a.ReadPressure(0) != b.ReadPressure(0) {
			t.Fatal("equal seeds diverged")
		}
	}
}

func TestFailureDistance(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 20000, VelocityMS: 70}, 1)
	for i := 0; i < 10000; i++ {
		e.StepMs()
	}
	f, failed := e.Failure()
	if !failed || f.Kind != FailureDistance {
		t.Fatalf("failure = (%v, %v), want distance failure on free roll", f, failed)
	}
	if f.TimeMs <= 0 {
		t.Error("failure time not recorded")
	}
}

func TestFailureForce(t *testing.T) {
	// Full pressure on a light aircraft exceeds its structural limit.
	e := newTestEnv(t, TestCase{MassKg: 8000, VelocityMS: 70}, 1)
	for i := 0; i < 4000; i++ {
		e.CommandValve(DrumMaster, 1700)
		e.CommandValve(DrumSlave, 1700)
		e.StepMs()
		if _, failed := e.Failure(); failed {
			break
		}
	}
	f, failed := e.Failure()
	if !failed || f.Kind != FailureForce {
		t.Fatalf("failure = (%v, %v), want force failure", f, failed)
	}
}

func TestFailureRetardation(t *testing.T) {
	// The 2.8 g limit requires more force than the drums can produce
	// for heavy aircraft, but a custom plant with a stronger drum
	// exercises the constraint.
	cst := DefaultConstants()
	cst.ForcePerKPa = 20
	table := DefaultForceTable()
	for i := range table.FmaxN {
		for j := range table.FmaxN[i] {
			table.FmaxN[i][j] *= 10 // force limit out of the way
		}
	}
	e, err := NewEnv(cst, table, TestCase{MassKg: 8000, VelocityMS: 70}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		e.CommandValve(DrumMaster, 1700)
		e.CommandValve(DrumSlave, 1700)
		e.StepMs()
		if _, failed := e.Failure(); failed {
			break
		}
	}
	f, failed := e.Failure()
	if !failed || f.Kind != FailureRetardation {
		t.Fatalf("failure = (%v, %v), want retardation failure", f, failed)
	}
}

func TestFirstFailureLatched(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 20000, VelocityMS: 70}, 1)
	for i := 0; i < 40000; i++ {
		e.StepMs()
	}
	f, _ := e.Failure()
	first := f
	// Keep going; the latched failure must not change.
	for i := 0; i < 1000; i++ {
		e.StepMs()
	}
	f, _ = e.Failure()
	if f != first {
		t.Errorf("failure changed from %+v to %+v", first, f)
	}
}

func TestStopsUnderConstantPressure(t *testing.T) {
	e := newTestEnv(t, TestCase{MassKg: 12000, VelocityMS: 50}, 1)
	for i := 0; i < 30000; i++ {
		e.CommandValve(DrumMaster, 700)
		e.CommandValve(DrumSlave, 700)
		e.StepMs()
		if _, stopped := e.Stopped(); stopped {
			break
		}
	}
	stopMs, stopped := e.Stopped()
	if !stopped {
		t.Fatal("aircraft did not stop under 7 MPa per drum")
	}
	if stopMs <= 0 || e.Velocity() != 0 {
		t.Errorf("stop bookkeeping: t=%d v=%g", stopMs, e.Velocity())
	}
	// Energy audit: kinetic energy must be fully dissipated within the
	// travelled distance at the applied force level.
	if e.PeakForce() <= 0 || e.PeakRetardation() <= 0 {
		t.Error("peak readouts missing")
	}
	// After the stop, further steps do not move the aircraft.
	d := e.Distance()
	for i := 0; i < 100; i++ {
		e.StepMs()
	}
	if e.Distance() != d {
		t.Error("aircraft moved after stopping")
	}
}

func TestFmaxNReadout(t *testing.T) {
	tc := TestCase{MassKg: 14000, VelocityMS: 55}
	e := newTestEnv(t, tc, 1)
	want := DefaultForceTable().Fmax(tc.MassKg, tc.VelocityMS)
	if e.fmaxN != want {
		t.Errorf("fmaxN = %g, want %g", e.fmaxN, want)
	}
	if e.tc != tc {
		t.Errorf("tc = %+v", e.tc)
	}
}

func TestGrid(t *testing.T) {
	if got := len(Grid(5)); got != 25 {
		t.Fatalf("Grid(5) has %d cases", got)
	}
	g := Grid(3)
	if len(g) != 9 {
		t.Fatalf("Grid(3) has %d cases", len(g))
	}
	for _, tc := range g {
		if tc.MassKg < 8000 || tc.MassKg > 20000 || tc.VelocityMS < 40 || tc.VelocityMS > 70 {
			t.Errorf("case %+v outside the paper ranges", tc)
		}
	}
	// Corners are included.
	if g[0].MassKg != 8000 || g[0].VelocityMS != 40 || g[8].MassKg != 20000 || g[8].VelocityMS != 70 {
		t.Errorf("grid corners wrong: %+v ... %+v", g[0], g[8])
	}
	if Grid(0) != nil {
		t.Error("Grid(0) should be nil")
	}
	if one := Grid(1); len(one) != 1 || one[0].MassKg != 14000 {
		t.Errorf("Grid(1) = %+v, want the grid centre", one)
	}
}

func TestFailureKindString(t *testing.T) {
	for k, want := range map[FailureKind]string{
		FailureNone:        "none",
		FailureRetardation: "retardation",
		FailureForce:       "force",
		FailureDistance:    "distance",
		FailureKind(9):     "FailureKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// Energy balance: the work done by the retarding force equals the
// kinetic energy dissipated, within integration error.
func TestEnergyBalance(t *testing.T) {
	tc := TestCase{MassKg: 15000, VelocityMS: 60}
	e := newTestEnv(t, tc, 4)
	work := 0.0
	for i := 0; i < 30000; i++ {
		e.CommandValve(DrumMaster, 800)
		e.CommandValve(DrumSlave, 800)
		// Accumulate F * dx with the force acting over this step.
		before := e.Distance()
		e.StepMs()
		work += e.cst.ForcePerKPa * (e.AppliedPressure(DrumMaster) + e.AppliedPressure(DrumSlave)) * (e.Distance() - before)
		if _, stopped := e.Stopped(); stopped {
			break
		}
	}
	if _, stopped := e.Stopped(); !stopped {
		t.Fatal("did not stop")
	}
	ke := 0.5 * tc.MassKg * tc.VelocityMS * tc.VelocityMS
	if work < ke*0.98 || work > ke*1.02 {
		t.Errorf("work %.0f J vs kinetic energy %.0f J (%.2f%%)", work, ke, work/ke*100)
	}
}
