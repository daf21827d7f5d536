package inject

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/physics"
	"easig/internal/target"
)

// Policy is the time-triggered injection schedule of the paper's §3.4:
// the error is injected with a fixed period during the whole
// observation window ("errors may have been injected during the
// execution of the executable assertions").
type Policy struct {
	// StartMs is the time of the first injection.
	StartMs int64 `json:"start_ms"`
	// PeriodMs is the re-injection period (the paper uses 20 ms).
	PeriodMs int64 `json:"period_ms"`
}

// DefaultPolicy returns the paper's schedule: 20 ms period, starting
// half a second into the arrestment.
func DefaultPolicy() Policy { return Policy{StartMs: 500, PeriodMs: 20} }

// Validate rejects a schedule whose first injection precedes the run.
// The literal runner steps the plant from 0 ms while the snapshot
// engine resumes from its checkpoint at StartMs, so under a negative
// start the two would simulate different windows.
func (p Policy) Validate() error {
	if p.StartMs < 0 {
		return fmt.Errorf("injection start must be at least 0 ms, got %d", p.StartMs)
	}
	return nil
}

// due reports whether the schedule flips the bit at the start of tick
// ms. The literal runners and the Engine's kernel share it.
func (p Policy) due(ms int64) bool {
	return ms >= p.StartMs && (ms-p.StartMs)%p.PeriodMs == 0
}

// DefaultObservationMs is the paper's 40-second observation period.
const DefaultObservationMs = 40000

// RunConfig describes one experiment run: one <mass, velocity, error>
// combination against one software version.
type RunConfig struct {
	// TestCase is the aircraft mass and engagement velocity.
	TestCase physics.TestCase
	// Version selects the enabled executable assertions, on the slave
	// as on the master: a run builds both nodes alike (the uniform
	// builds of target.SystemConfig), so under a recovery policy a
	// version repairs only through its own assertions.
	Version target.Version
	// Error is the injected error; nil runs a fault-free golden run.
	Error *Error
	// Policy is the injection schedule (DefaultPolicy when zero).
	Policy Policy
	// ObservationMs is the observation window (DefaultObservationMs
	// when zero).
	ObservationMs int64
	// Seed drives the run's sensor noise.
	Seed int64
	// Recovery is the assertion recovery policy. The paper campaigns
	// run detection-only (core.NoRecovery): the pin is raised but the
	// corrupted state is left in place, which reproduces the paper's
	// high failure rates under injection. Pass core.PreviousValue for
	// the recovery ablation. Defaults to core.NoRecovery.
	Recovery core.RecoveryPolicy
	// Placement selects consumer-side (paper) or producer-side
	// assertion execution (ablation).
	Placement target.Placement
	// FullObservation disables the early exit that campaign runs use
	// once a run's outcome can no longer change; interactive tools set
	// it to obtain complete plant readouts.
	FullObservation bool
	// Constants and ForceTable override the plant defaults.
	Constants  *physics.Constants
	ForceTable *physics.ForceTable
}

// schedule resolves the run's injection schedule and observation
// window, reading a zero Policy or ObservationMs as the paper default.
// Runners call it once at construction.
func (c RunConfig) schedule() (Policy, int64) {
	policy, obs := c.Policy, c.ObservationMs
	if policy.PeriodMs <= 0 {
		policy = DefaultPolicy()
	}
	if obs <= 0 {
		obs = DefaultObservationMs
	}
	return policy, obs
}

// RunResult is one run's readout record: what the FIC3 stores from the
// detection pin and the environment simulator.
type RunResult struct {
	// Detected reports at least one detection during the observation
	// period (the paper's "successful error detection").
	Detected bool
	// FirstDetectionMs is the absolute time of the first detection.
	FirstDetectionMs int64
	// LatencyMs is the detection latency: time from the first
	// injection of the error to the first detection.
	LatencyMs int64
	// Detections is the total number of assertion violations.
	Detections int
	// ByTest counts violations per violated assertion (which Table 2/3
	// constraint fired); nil when no detection occurred.
	ByTest map[core.TestID]int
	// Injections is the number of performed bit-flips.
	Injections int
	// Failed reports a violated arrestment constraint.
	Failed bool
	// Failure is the first constraint violation when Failed.
	Failure physics.Failure
	// Stopped reports whether the aircraft came to a halt, and when.
	Stopped   bool
	StoppedMs int64
	// DistanceM is the final aircraft travel.
	DistanceM float64
	// PeakForceN and PeakRetardationMS2 are plant maxima.
	PeakForceN         float64
	PeakRetardationMS2 float64
}

// pinSink is the minimal detection recorder used by campaign runs: the
// time-stamped first rising edge of the detection pin, a count, and a
// per-constraint breakdown.
type pinSink struct {
	first    int64
	hasFirst bool
	count    int
	byTest   map[core.TestID]int
}

// Detect implements core.DetectionSink: it timestamps the first rising
// edge of the pin and accumulates the per-constraint counts.
func (p *pinSink) Detect(v core.Violation) {
	if !p.hasFirst {
		p.first = v.Time
		p.hasFirst = true
	}
	p.count++
	if p.byTest == nil {
		p.byTest = make(map[core.TestID]int, 4)
	}
	p.byTest[v.Test]++
}

// Run executes one experiment run and returns its readouts.
func Run(cfg RunConfig) (RunResult, error) {
	policy, obs := cfg.schedule()
	recovery := cfg.Recovery
	if recovery == nil {
		recovery = core.NoRecovery{}
	}
	pin := &pinSink{}
	sys, err := target.NewSystem(target.SystemConfig{
		Constants:    cfg.Constants,
		ForceTable:   cfg.ForceTable,
		TestCase:     cfg.TestCase,
		Seed:         cfg.Seed,
		Version:      cfg.Version,
		SlaveVersion: cfg.Version,
		Sink:         pin,
		Recovery:     recovery,
		Placement:    cfg.Placement,
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("inject: building system: %w", err)
	}

	var res RunResult
	mem := sys.Master().Memory()
	for ms := int64(0); ms < obs; ms++ {
		if cfg.Error != nil && policy.due(ms) {
			if err := cfg.Error.Apply(mem); err != nil {
				return RunResult{}, fmt.Errorf("inject: applying %v: %w", cfg.Error, err)
			}
			res.Injections++
		}
		sys.StepMs()
		// Once the outcome of the run is fully determined — a detection
		// is recorded and the aircraft can no longer violate a
		// constraint (stopped) or already has (failed) — the remaining
		// observation time cannot change the campaign readouts.
		if pin.hasFirst && !cfg.FullObservation {
			if _, stopped := sys.Env().Stopped(); stopped {
				break
			}
			if _, failed := sys.Env().Failure(); failed {
				break
			}
		}
	}

	res.Detected = pin.hasFirst
	res.Detections = pin.count
	res.ByTest = pin.byTest
	if pin.hasFirst {
		res.FirstDetectionMs = pin.first
		res.LatencyMs = pin.first - policy.StartMs
		if cfg.Error == nil {
			res.LatencyMs = pin.first
		}
	}
	res.Failure, res.Failed = sys.Env().Failure()
	res.StoppedMs, res.Stopped = sys.Env().Stopped()
	res.DistanceM = sys.Env().Distance()
	res.PeakForceN = sys.Env().PeakForce()
	res.PeakRetardationMS2 = sys.Env().PeakRetardation()
	return res, nil
}
