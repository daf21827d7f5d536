package target

import (
	"testing"

	"easig/internal/core"
	"easig/internal/physics"
)

func newTestSystem(t *testing.T, cfg SystemConfig) *System {
	t.Helper()
	if cfg.TestCase == (physics.TestCase{}) {
		cfg.TestCase = physics.TestCase{MassKg: 14000, VelocityMS: 55}
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// The seven monitored signals must occupy the first seven RAM words in
// Table 4 order: inject.BuildE1 computes their addresses from RAMBase.
func TestSignalMemoryLayout(t *testing.T) {
	sys := newTestSystem(t, SystemConfig{})
	v := sys.Master().Vars()
	got := []struct {
		name string
		addr uint16
	}{
		{SigSetValue, v.SetValue.Addr()},
		{SigIsValue, v.IsValue.Addr()},
		{SigI, v.I.Addr()},
		{SigPulsCnt, v.PulsCnt.Addr()},
		{SigMsSlotNbr, v.MsSlotNbr.Addr()},
		{SigMsCnt, v.MsCnt.Addr()},
		{SigOutValue, v.OutValue.Addr()},
	}
	for k, g := range got {
		want := uint16(RAMBase + 2*k)
		if g.addr != want {
			t.Errorf("signal %q at 0x%04x, want 0x%04x", g.name, g.addr, want)
		}
		if SignalNames()[k] != g.name {
			t.Errorf("SignalNames()[%d] = %q, want %q", k, SignalNames()[k], g.name)
		}
	}
	if ramUsedEnd > RAMBase+RAMSize {
		t.Errorf("RAM layout overflows the region: used end 0x%04x > 0x%04x", ramUsedEnd, RAMBase+RAMSize)
	}
	if len(SignalClasses()) != NumEAs || len(TestLocations()) != NumEAs {
		t.Fatalf("classes/locations length mismatch")
	}
}

// A nominal arrestment must stop the aircraft inside the runway with
// zero assertion violations on the fully instrumented build.
func TestNominalArrestment(t *testing.T) {
	rec := &core.Recorder{}
	sys := newTestSystem(t, SystemConfig{Version: VersionAll, Sink: rec, SlaveSink: rec})
	sys.RunMs(20000)
	if rec.Detected() {
		v := rec.Violations()[0]
		t.Fatalf("nominal run raised %d violations; first: %+v", rec.Count(), v)
	}
	if _, stopped := sys.Env().Stopped(); !stopped {
		t.Fatalf("aircraft did not stop (v=%.2f m/s at %.1f m)", sys.Env().Velocity(), sys.Env().Distance())
	}
	if _, failed := sys.Env().Failure(); failed {
		t.Fatalf("nominal run failed: %v", func() interface{} { f, _ := sys.Env().Failure(); return f }())
	}
	if d := sys.Env().Distance(); d >= 335 {
		t.Fatalf("stopped beyond the runway: %.1f m", d)
	}
}

// The slave must track the master's set point through the link.
func TestSlaveTracksSetPoint(t *testing.T) {
	sys := newTestSystem(t, SystemConfig{})
	sys.RunMs(3000)
	m := int64(sys.Master().Vars().SetValue.Get())
	s := int64(sys.slave.Vars().SetValue.Get())
	if m == 0 {
		t.Fatalf("master set point still zero after 3 s")
	}
	// The link updates every 7 ms and CALC slews at most 20 counts/ms.
	if d := m - s; d < -140 || d > 140 {
		t.Fatalf("slave set point %d lags master %d by more than one link period", s, m)
	}
}

func TestVersions(t *testing.T) {
	vs := Versions()
	if len(vs) != 8 || vs[len(vs)-1] != VersionAll {
		t.Fatalf("Versions() = %v, want EA1..EA7 then All", vs)
	}
	for k, v := range vs[:7] {
		if int(v) != k+1 || !v.Valid() || v.String() == "" {
			t.Fatalf("Versions()[%d] = %v", k, v)
		}
	}
	if VersionNone.Valid() != true || Version(8).Valid() {
		t.Fatalf("Valid() boundaries wrong")
	}
	if _, err := NewSystem(SystemConfig{
		TestCase: physics.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  Version(9),
	}); err == nil {
		t.Fatalf("NewSystem accepted an invalid version")
	}
}

// Corrupting the dispatcher canary must crash the node: control flow is
// lost, no module runs again, and the signals freeze — the stack-error
// failure mode the paper's E2 campaign shows assertions cannot detect.
func TestCanaryCorruptionCrashesNode(t *testing.T) {
	rec := &core.Recorder{}
	sys := newTestSystem(t, SystemConfig{Version: VersionAll, Sink: rec})
	sys.RunMs(1000)
	if err := sys.Master().Memory().FlipBit(addrNodeCanary, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	sys.StepMs()
	if !sys.master.dead {
		t.Fatalf("node survived a corrupted dispatcher canary")
	}
	ms := sys.Master().Vars().MsCnt.Get()
	sys.RunMs(100)
	if got := sys.Master().Vars().MsCnt.Get(); got != ms {
		t.Fatalf("dead node still counting: mscnt %d -> %d", ms, got)
	}
	if rec.Detected() {
		t.Fatalf("assertions claimed to detect a control-flow crash")
	}
}

// The dispatcher must leave the stack pointer balanced after every tick.
func TestDispatcherStackBalanced(t *testing.T) {
	sys := newTestSystem(t, SystemConfig{})
	for k := 0; k < 50; k++ {
		sys.StepMs()
		if sp := sys.Master().sp.Get(); sp != spInit {
			t.Fatalf("after tick %d: sp = 0x%04x, want 0x%04x", k, sp, spInit)
		}
	}
}
