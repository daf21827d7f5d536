// Package physics implements the environment simulator of the paper's
// case study (Figure 7): the aircraft-arresting barrier — cable, tape
// drums, hydraulic pressure valves — the incoming aircraft, and the
// sensors and actuators that connect the barrier to the computer nodes.
// It also implements the failure classification of §3.3 (retardation,
// retardation force against the Fmax(mass, velocity) table, stopping
// distance).
//
// The paper's own evaluation drove a real controller implementation
// with an environment simulator; this package is that simulator's
// equivalent. Constants are synthetic but chosen so that the full
// 25-test-case grid (mass 8000–20000 kg, engagement velocity
// 40–70 m/s) arrests failure-free under the nominal controller, while
// corrupted pressure commands can violate each of the three constraints.
package physics

// Constants describes the physical plant. The zero value is not
// useful; start from DefaultConstants.
type Constants struct {
	// PulsesPerMeter is the rotation-sensor resolution: tooth-wheel
	// pulses generated per meter of pulled-out cable.
	PulsesPerMeter float64
	// ValveTau is the first-order time constant (seconds) with which a
	// drum's applied pressure follows the commanded pressure.
	ValveTau float64
	// ForcePerKPa converts one drum's applied hydraulic pressure (kPa)
	// into retarding force on the cable (N). Two drums act in parallel.
	ForcePerKPa float64
	// MaxPressureKPa is the physical saturation of the hydraulic
	// system.
	MaxPressureKPa float64
	// RunwayLimitM is the available runway: stopping beyond it is a
	// failure (paper constraint 3: d < 335 m).
	RunwayLimitM float64
	// MaxRetardationG is the pilot-safety limit (paper constraint 1:
	// r < 2.8 g).
	MaxRetardationG float64
	// SensorNoiseKPa bounds the uniform pressure-sensor noise.
	SensorNoiseKPa float64
	// ValveWatchdogMs is the valve's dead-man interval: if a node does
	// not refresh its valve command within this time, the hydraulics
	// fail safe and release the commanded pressure to zero (a dead
	// controller must not keep the brake locked). Zero disables the
	// watchdog.
	ValveWatchdogMs int64
	// Gravity is the standard acceleration used to convert the g
	// limit.
	Gravity float64
}

// DefaultConstants returns the plant constants used throughout the
// reproduction. See the package comment for how they were chosen.
func DefaultConstants() Constants {
	return Constants{
		PulsesPerMeter:  10,
		ValveTau:        0.15,
		ForcePerKPa:     7.0,
		MaxPressureKPa:  17000,
		RunwayLimitM:    335,
		MaxRetardationG: 2.8,
		SensorNoiseKPa:  2,
		ValveWatchdogMs: 50,
		Gravity:         9.80665,
	}
}

// TestCase is one experiment input: the paper's <m, v> pair of aircraft
// mass and engagement velocity.
type TestCase struct {
	// MassKg is the aircraft mass in kilograms (8000–20000 in the
	// paper's grid).
	MassKg float64
	// VelocityMS is the engagement velocity in meters per second
	// (40–70 in the paper's grid).
	VelocityMS float64
}

// Grid returns cases×cases test cases spanning the paper's ranges
// uniformly: mass 8000–20000 kg and velocity 40–70 m/s. Grid(5) is the
// 25-test-case set of §3.4.
func Grid(n int) []TestCase {
	if n < 1 {
		return nil
	}
	out := make([]TestCase, 0, n*n)
	for im := 0; im < n; im++ {
		for iv := 0; iv < n; iv++ {
			f := func(i int) float64 {
				if n == 1 {
					return 0.5
				}
				return float64(i) / float64(n-1)
			}
			out = append(out, TestCase{
				MassKg:     8000 + 12000*f(im),
				VelocityMS: 40 + 30*f(iv),
			})
		}
	}
	return out
}
