package target

import (
	"sync"

	"easig/internal/core"
)

// Control-law and plant-interface constants of the target software.
// Pressure values are in counts of physics.PressureUnitKPa (10 kPa),
// distances in decimeters (one rotation pulse per dm of cable), and
// velocities in dm/s.
const (
	// numCheckpoint is the length of the checkpoint distance table the
	// CALC module sequences through (signal i counts 0..6).
	numCheckpoint = 6

	// stopTargetDm is the distance (dm) at which the control law aims
	// to have the aircraft stopped: 290 m, inside the 335 m runway.
	stopTargetDm = 2900

	// minDecelDms and maxDecelDms clamp the commanded deceleration
	// (dm/s²): a floor so every arrestment terminates, and a ceiling
	// below the structural and pilot-safety limits.
	minDecelDms = 30
	maxDecelDms = 140

	// maxCommandCounts caps the pressure set point and valve command
	// (1700 counts = 17 MPa, the hydraulic saturation).
	maxCommandCounts = 1700

	// setSlewPerMs rate-limits the CALC module's set-point output.
	setSlewPerMs = 20

	// mixBoost bounds the proportional (SetValue - IsValue) correction
	// the valve regulator adds on top of the set point.
	mixBoost = 60

	// valveOpenPerSlot and valveClosePerSlot rate-limit the valve
	// command per V_REG activation (every 7 ms): the hydraulics apply
	// pressure fast but release it slowly to avoid cable slack.
	valveOpenPerSlot  = 120
	valveClosePerSlot = 40

	// velWindowMs is the CALC velocity-estimation window length.
	velWindowMs = 128

	// linkStaleMs is how long the slave trusts the last received set
	// point before treating the link as dead.
	linkStaleMs = 50
)

// ckptTable is the checkpoint distance table (dm): CALC advances i when
// the pulse count passes entry i. The first checkpoint arms the brake.
var ckptTable = [numCheckpoint]uint16{50, 400, 800, 1200, 1600, 2000}

// eaContinuous returns the Pcont parameter set of the given signal's
// assertion, instantiated per Table 4 from the calibrated nominal
// behaviour of the target software.
func eaContinuous(sig int) core.Continuous {
	switch sig {
	case sigSetValue:
		// EA1: set point 0..1700 counts plus slack; CALC slews it at
		// most 20/ms, so 200 covers the longest consumer test interval.
		return core.Continuous{
			Min: 0, Max: 1750,
			Incr: core.Rate{Min: 0, Max: 200},
			Decr: core.Rate{Min: 0, Max: 200},
		}
	case sigIsValue:
		// EA2: measured pressure; the valve time constant limits the
		// applied-pressure slew to well under 150 counts per 7 ms.
		return core.Continuous{
			Min: 0, Max: 1750,
			Incr: core.Rate{Min: 0, Max: 150},
			Decr: core.Rate{Min: 0, Max: 150},
		}
	case sigPulsCnt:
		// EA4: the pulse count is monotonically increasing with a
		// dynamic rate; at 70 m/s the cable pays out under one pulse
		// per ms.
		return core.Continuous{
			Min: 0, Max: 65535,
			Incr: core.Rate{Min: 0, Max: 2},
			Decr: core.Rate{Min: 0, Max: 0},
		}
	case sigMsCnt:
		// EA6: the millisecond counter increments by exactly one per
		// test and wraps at the 16-bit boundary.
		return core.Continuous{
			Min: 0, Max: 65536,
			Incr: core.Rate{Min: 1, Max: 1},
			Decr: core.Rate{Min: 0, Max: 0},
			Wrap: true,
		}
	case sigOutValue:
		// EA7: valve command, rate-limited by V_REG itself.
		return core.Continuous{
			Min: 0, Max: 1750,
			Incr: core.Rate{Min: 0, Max: 150},
			Decr: core.Rate{Min: 0, Max: 150},
		}
	default:
		panic("target: no continuous parameters for signal")
	}
}

// eaDiscrete returns the Pdisc parameter sets of the discrete signals'
// assertions, built and indexed on first use: every monitor of every
// node and stream shares them, since a monitor never writes its
// discrete sets.
var eaDiscrete = sync.OnceValue(func() map[int]core.Discrete {
	return map[int]core.Discrete{
		// EA3: the checkpoint counter walks 0..6 one step at a time and
		// may hold its value between tests.
		sigI: core.NewLinear([]int64{0, 1, 2, 3, 4, 5, 6}, false, true),
		// EA5: the dispatcher slot cycles 0..6 and never repeats.
		sigMsSlotNbr: core.NewLinear([]int64{0, 1, 2, 3, 4, 5, 6}, true, false),
	}
})
