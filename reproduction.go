package easig

import (
	"easig/internal/inject"
	"easig/internal/physics"
	"easig/internal/target"
)

// The case study: the paper's arresting system and its fault-injection
// runs, re-exported for the examples and cmd/arrest. Campaigns, tables
// and reports live in internal/experiment, which fic imports directly.

// TestCase is one experiment input: aircraft mass and engagement
// velocity, a point of the §3.4 test-case grid.
type TestCase = physics.TestCase

// Version selects which executable assertions are active in the
// target software (the paper's eight versions).
type Version = target.Version

// The software versions of the paper's §3.4.
const (
	VersionAll  = target.VersionAll
	VersionEA1  = target.VersionEA1
	VersionEA2  = target.VersionEA2
	VersionEA3  = target.VersionEA3
	VersionEA4  = target.VersionEA4
	VersionEA5  = target.VersionEA5
	VersionEA6  = target.VersionEA6
	VersionEA7  = target.VersionEA7
	VersionNone = target.VersionNone
)

// ArrestingSystem is the complete experiment target of the paper's §3:
// environment simulator, master node and slave node.
type ArrestingSystem = target.System

// ArrestingSystemConfig assembles an ArrestingSystem (test case,
// software version, sinks, recovery, Table 4 assertion placement).
type ArrestingSystemConfig = target.SystemConfig

// NewArrestingSystem builds and boots a system for one run.
func NewArrestingSystem(cfg ArrestingSystemConfig) (*ArrestingSystem, error) {
	return target.NewSystem(cfg)
}

// InjectionError is one injectable bit-flip error (a Table 6 E1 error
// or a random E2 error).
type InjectionError = inject.Error

// RunConfig describes one fault-injection experiment run: one
// <mass, velocity, error> combination against one software version.
type RunConfig = inject.RunConfig

// RunResult is one run's readout record: what the paper's FIC3 stores
// from the detection pin and the environment simulator.
type RunResult = inject.RunResult

// Run executes one §3.4 experiment run.
func Run(cfg RunConfig) (RunResult, error) { return inject.Run(cfg) }

// BuildE1 builds the paper's Table 6 error set (112 errors).
func BuildE1() []InjectionError { return inject.BuildE1() }
