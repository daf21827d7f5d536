package physics

import (
	"fmt"
)

// FailureKind classifies a constraint violation per the paper's §3.3.
type FailureKind int

const (
	// FailureNone means the arrestment honoured all constraints.
	FailureNone FailureKind = iota
	// FailureRetardation is constraint 1: retardation r >= 2.8 g.
	FailureRetardation
	// FailureForce is constraint 2: cable force >= Fmax(mass, velocity).
	FailureForce
	// FailureDistance is constraint 3: stopping distance >= 335 m.
	FailureDistance
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailureNone:
		return "none"
	case FailureRetardation:
		return "retardation"
	case FailureForce:
		return "force"
	case FailureDistance:
		return "distance"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// Failure records the first violated constraint of a run. The paper
// classifies a run as failed if one or more constraints were violated
// at any time during the arrestment.
type Failure struct {
	Kind   FailureKind
	TimeMs int64
	Detail string
}

// DrumMaster and DrumSlave index the two tape drums.
const (
	DrumMaster = 0
	DrumSlave  = 1
)

// Env is the environment simulator: aircraft, cable and drums, valve
// hydraulics, sensors. It advances in 1 ms steps driven by the
// experiment kernel, reads valve commands set by the computer nodes and
// produces sensor readings for them, and classifies failures.
//
// Env is not safe for concurrent use; each experiment run owns one.
type Env struct {
	cst   Constants
	tc    TestCase
	fmaxN float64
	rng   noiseRNG

	nowMs   int64
	x       float64 // pulled-out cable / aircraft travel (m)
	v       float64 // aircraft velocity (m/s)
	accel   float64 // current deceleration magnitude (m/s²)
	force   float64 // current total retarding force (N)
	p       [2]float64
	cmd     [2]float64
	cmdAt   [2]int64 // last CommandValve time per drum
	stopped bool
	stopMs  int64

	failure  Failure
	failed   bool
	maxForce float64
	maxAccel float64
}

// NewEnv builds an environment for one test case. The seed controls
// sensor noise only; two environments with equal seeds and inputs
// evolve identically.
func NewEnv(cst Constants, table ForceTable, tc TestCase, seed int64) (*Env, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	if tc.MassKg <= 0 || tc.VelocityMS <= 0 {
		return nil, fmt.Errorf("physics: invalid test case %+v", tc)
	}
	return &Env{
		cst:   cst,
		tc:    tc,
		fmaxN: table.Fmax(tc.MassKg, tc.VelocityMS),
		rng:   newNoiseRNG(seed),
		v:     tc.VelocityMS,
	}, nil
}

// StepMs advances the plant by one millisecond: valve lag, cable force,
// aircraft kinematics, and the failure monitor.
func (e *Env) StepMs() {
	const dt = 0.001
	e.nowMs++
	for i := range e.p {
		// Dead-man watchdog: a valve whose controller stopped
		// refreshing the command releases the pressure (fail-safe).
		if e.cst.ValveWatchdogMs > 0 && e.nowMs-e.cmdAt[i] > e.cst.ValveWatchdogMs {
			e.cmd[i] = 0
		}
		e.p[i] += (e.cmd[i] - e.p[i]) * dt / e.cst.ValveTau
		if e.p[i] < 0 {
			e.p[i] = 0
		}
		if e.p[i] > e.cst.MaxPressureKPa {
			e.p[i] = e.cst.MaxPressureKPa
		}
	}
	if e.stopped {
		e.accel, e.force = 0, 0
		return
	}
	e.force = e.cst.ForcePerKPa * (e.p[0] + e.p[1])
	e.accel = e.force / e.tc.MassKg
	if e.force > e.maxForce {
		e.maxForce = e.force
	}
	if e.accel > e.maxAccel {
		e.maxAccel = e.accel
	}
	// Failure constraints (paper §3.3), checked while the aircraft is
	// still being arrested; the first violation is latched.
	if !e.failed {
		switch {
		case e.accel >= e.cst.MaxRetardationG*e.cst.Gravity:
			e.fail(FailureRetardation, fmt.Sprintf("r=%.2fg", e.accel/e.cst.Gravity))
		case e.force >= e.fmaxN:
			e.fail(FailureForce, fmt.Sprintf("F=%.0fN Fmax=%.0fN", e.force, e.fmaxN))
		}
	}
	e.v -= e.accel * dt
	if e.v <= 0 {
		e.v = 0
		e.stopped = true
		e.stopMs = e.nowMs
		return
	}
	e.x += e.v * dt
	if !e.failed && e.x >= e.cst.RunwayLimitM {
		e.fail(FailureDistance, fmt.Sprintf("d=%.1fm", e.x))
	}
}

func (e *Env) fail(kind FailureKind, detail string) {
	e.failed = true
	e.failure = Failure{Kind: kind, TimeMs: e.nowMs, Detail: detail}
}

// PressureUnitKPa is the engineering unit of the pressure ADC and DAC:
// one count equals 10 kPa. The computer nodes see and command pressure
// in these counts, so the software's pressure signals span roughly
// 0..1700 of the 16-bit word — a realistic fixed-point layout that the
// executable assertions' value-domain tests exploit.
const PressureUnitKPa = 10

// RotationPulses returns the cumulative tooth-wheel pulse count of the
// master drum, modulo 2^16 like the real counter register.
func (e *Env) RotationPulses() uint16 {
	return uint16(int64(e.x * e.cst.PulsesPerMeter))
}

// ReadPressure returns the pressure sensor reading of one drum in ADC
// counts of PressureUnitKPa, including bounded uniform sensor noise,
// clamped to the converter's 16-bit range.
func (e *Env) ReadPressure(drum int) uint16 {
	v := (e.p[drum] + (e.rng.float64()*2-1)*e.cst.SensorNoiseKPa) / PressureUnitKPa
	if v < 0 {
		v = 0
	}
	if v > 65535 {
		v = 65535
	}
	return uint16(v)
}

// CommandValve latches a node's commanded pressure for one drum, in
// DAC counts of PressureUnitKPa. The hydraulics saturate at the
// physical maximum regardless of command.
func (e *Env) CommandValve(drum int, counts uint16) {
	c := float64(counts) * PressureUnitKPa
	if c > e.cst.MaxPressureKPa {
		c = e.cst.MaxPressureKPa
	}
	e.cmd[drum] = c
	e.cmdAt[drum] = e.nowMs
}

// Failure returns the first constraint violation and whether one
// occurred.
func (e *Env) Failure() (Failure, bool) { return e.failure, e.failed }

// Stopped reports whether the aircraft has come to a complete halt, and
// at what time.
func (e *Env) Stopped() (int64, bool) { return e.stopMs, e.stopped }

// NowMs returns the simulated time in milliseconds.
func (e *Env) NowMs() int64 { return e.nowMs }

// Distance returns the aircraft travel so far in meters.
func (e *Env) Distance() float64 { return e.x }

// Velocity returns the current aircraft velocity in m/s.
func (e *Env) Velocity() float64 { return e.v }

// AppliedPressure returns one drum's applied hydraulic pressure in kPa.
func (e *Env) AppliedPressure(drum int) float64 { return e.p[drum] }

// PeakForce returns the maximum retarding force seen so far (N).
func (e *Env) PeakForce() float64 { return e.maxForce }

// PeakRetardation returns the maximum deceleration seen so far (m/s²).
func (e *Env) PeakRetardation() float64 { return e.maxAccel }
