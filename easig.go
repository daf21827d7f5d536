package easig

import (
	"easig/internal/core"
)

// The mechanisms: the classification scheme, the parameter sets, the
// monitors with their recovery policies and sinks, and calibration,
// re-exported from internal/core.

// Class identifies a node of the paper's Figure 1 classification
// scheme.
type Class = core.Class

// The six leaf classes of the paper's Figure 1 classification scheme.
const (
	ContinuousRandom            = core.ContinuousRandom
	ContinuousMonotonicStatic   = core.ContinuousMonotonicStatic
	ContinuousMonotonicDynamic  = core.ContinuousMonotonicDynamic
	DiscreteRandom              = core.DiscreteRandom
	DiscreteSequentialLinear    = core.DiscreteSequentialLinear
	DiscreteSequentialNonLinear = core.DiscreteSequentialNonLinear
)

// ParseClass parses the compact Table 4 notation ("Co/Ra", "Di/Se/Li",
// ...).
func ParseClass(s string) (Class, error) { return core.ParseClass(s) }

// Rate bounds the per-test change magnitude in one direction (the
// rate-limit entries of the paper's Table 1 parameter sets).
type Rate = core.Rate

// Continuous is the parameter set Pcont for continuous signals (paper
// Table 1).
type Continuous = core.Continuous

// Discrete is the parameter set Pdisc for discrete signals (paper
// Table 1).
type Discrete = core.Discrete

// NewLinear builds the Pdisc of a linear sequential signal traversing
// domain in order.
func NewLinear(domain []int64, cyclic, allowStay bool) Discrete {
	return core.NewLinear(domain, cyclic, allowStay)
}

// TestID identifies which assertion of Tables 2/3 a signal failed.
type TestID = core.TestID

// The assertion identifiers: value bounds, rate windows and wrap-around
// (paper Table 2); domain membership and transition legality (Table 3).
const (
	TestMax        = core.TestMax
	TestMin        = core.TestMin
	TestIncrease   = core.TestIncrease
	TestDecrease   = core.TestDecrease
	TestUnchanged  = core.TestUnchanged
	TestDomain     = core.TestDomain
	TestTransition = core.TestTransition
)

// Violation describes a detected data error: which signal failed which
// Table 2/3 assertion, when, and with what value.
type Violation = core.Violation

// Monitor is a stateful executable-assertion tester for one signal: the
// unit the paper instruments into the target software at each Table 4
// test location.
type Monitor = core.Monitor

// MonitorOption configures a Monitor.
type MonitorOption = core.MonitorOption

// WithRecovery sets the recovery policy applied after a violation.
func WithRecovery(p RecoveryPolicy) MonitorOption { return core.WithRecovery(p) }

// WithSink sets the detection sink receiving violations.
func WithSink(s DetectionSink) MonitorOption { return core.WithSink(s) }

// WithInitialMode selects the initially active signal mode.
func WithInitialMode(mode int) MonitorOption { return core.WithInitialMode(mode) }

// NewContinuousMonitor builds a single-mode monitor for a continuous
// signal, running the paper's Table 2 assertions.
func NewContinuousMonitor(name string, class Class, p Continuous, opts ...MonitorOption) (*Monitor, error) {
	return core.NewContinuousSingle(name, class, p, opts...)
}

// NewContinuousModes builds a monitor with one Pcont per signal mode
// (the paper's §2.1 mode-dependent parameter sets).
func NewContinuousModes(name string, class Class, modes map[int]Continuous, opts ...MonitorOption) (*Monitor, error) {
	return core.NewContinuous(name, class, modes, opts...)
}

// NewDiscreteMonitor builds a single-mode monitor for a discrete
// signal, running the paper's Table 3 assertions.
func NewDiscreteMonitor(name string, class Class, p Discrete, opts ...MonitorOption) (*Monitor, error) {
	return core.NewDiscreteSingle(name, class, p, opts...)
}

// DetectionSink receives violations (the paper target's "digital
// output pin").
type DetectionSink = core.DetectionSink

// SinkFunc adapts a function to DetectionSink.
type SinkFunc = core.SinkFunc

// RecoveryPolicy decides the replacement value after a violation (the
// paper's "the signal can be returned to a valid state"; the §3.4
// campaigns run detection-only, with NoRecovery).
type RecoveryPolicy = core.RecoveryPolicy

// Recovery policies.
type (
	// NoRecovery detects without repairing.
	NoRecovery = core.NoRecovery
	// PreviousValue replaces the offending value with the last
	// accepted one.
	PreviousValue = core.PreviousValue
	// ResetTo recovers to one fixed safe value.
	ResetTo = core.ResetTo
)

// CalibrationOptions widens observed trace envelopes into parameter
// proposals.
type CalibrationOptions = core.CalibrationOptions

// ContinuousCalibrator proposes Pcont sets from fault-free traces.
type ContinuousCalibrator = core.ContinuousCalibrator

// EnvelopeTracker derives dynamic continuous constraints from a
// reference signal (the paper's §2.1 "dynamic constraints" extension).
type EnvelopeTracker = core.EnvelopeTracker
