package easig

import (
	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/physics"
	"easig/internal/target"
)

// Reproduction entry points: the paper's case study and evaluation,
// re-exported for the examples, cmd/arrest and fic's campaign path.

// TestCase is one experiment input: aircraft mass and engagement
// velocity, a point of the §3.4 test-case grid.
type TestCase = physics.TestCase

// Grid returns an n x n test-case grid over the paper's mass and
// velocity ranges; Grid(5) is the paper's 25-case set.
func Grid(n int) []TestCase { return physics.Grid(n) }

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

// Versions returns the paper's eight software versions.
func Versions() []Version { return target.Versions() }

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

// BuildE2 builds a paper-style random error set (150 RAM + 50 stack at
// default spec).
func BuildE2(seed int64) []InjectionError {
	return inject.BuildE2(inject.DefaultE2Spec(), seed)
}

// BuildExhaustive builds the full RAM/stack fault space: one error per
// (byte, bit) position, 11 400 errors — the measured-Pdetect
// counterpart of the paper's 200-error E2 sample.
func BuildExhaustive() []InjectionError { return inject.BuildExhaustive() }

// EngineMode selects the campaign execution engine.
type EngineMode = inject.Mode

// The engine modes (Discrete-by-value, like Version and Placement).
const (
	// EngineAuto resolves to EngineSnapshot for detection-only
	// campaigns and EngineLiteral otherwise (the zero value).
	EngineAuto = inject.ModeAuto
	// EngineLiteral simulates every run from time zero, as the paper's
	// FIC3 hardware did.
	EngineLiteral = inject.ModeLiteral
	// EngineSnapshot serves each test case from one fast-forwarded
	// checkpoint (PR 4's engine).
	EngineSnapshot = inject.ModeSnapshot
	// EngineMemo adds def/use liveness pruning and outcome memoization
	// on top of the snapshot engine.
	EngineMemo = inject.ModeMemo
)

// ParseEngineMode parses an -engine flag value
// (auto|literal|snapshot|memo).
func ParseEngineMode(s string) (EngineMode, error) { return inject.ParseMode(s) }

// CampaignSpec is the serializable protocol half of a campaign
// configuration: everything that determines which runs exist and what
// their outcomes are (grid, window, schedule, seed, error sets,
// versions, placement).
type CampaignSpec = experiment.Spec

// CampaignExec is the execution half: engine mode, worker pool,
// recovery policy, context, journal, resume and progress hooks. It
// cannot change a table cell.
type CampaignExec = experiment.Exec

// CampaignConfig parameterises a campaign; the zero value runs the
// paper's full §3.4 protocol. It embeds CampaignSpec (the serializable
// protocol) and CampaignExec (dispatch options). Set Journal, Resume,
// Progress and Context to record, resume and observe a long campaign.
type CampaignConfig = experiment.Config

// CampaignMetrics summarizes a finished campaign's execution: live and
// replayed run counts, wall time, throughput and per-worker
// utilization. Campaign results carry one in their Metrics field.
type CampaignMetrics = journal.Metrics

// E1Result aggregates an E1 campaign (Tables 7 and 8).
type E1Result = experiment.E1Result

// E2Result aggregates an E2 campaign (Table 9).
type E2Result = experiment.E2Result

// RunE1 executes the E1 campaign (22 400 runs at full scale).
func RunE1(cfg CampaignConfig) (*E1Result, error) { return experiment.RunE1(cfg) }

// RunE2 executes the E2 campaign (5000 runs at full scale).
func RunE2(cfg CampaignConfig) (*E2Result, error) { return experiment.RunE2(cfg) }

// Table renderers for the paper's tables.
var (
	// Table4 renders the target signal classification.
	Table4 = experiment.Table4
	// Table6 renders the E1 error-set distribution.
	Table6 = experiment.Table6
	// Table7 renders E1 detection probabilities.
	Table7 = experiment.Table7
	// Table8 renders E1 detection latencies.
	Table8 = experiment.Table8
	// Table9 renders E2 results.
	Table9 = experiment.Table9
	// Figure2 renders the three continuous-signal example traces.
	Figure2 = experiment.Figure2
)

// VerifyNominal checks the §3.4 precondition: the fault-free grid is
// detection- and failure-free for every version.
func VerifyNominal(cfg CampaignConfig) error { return experiment.VerifyNominal(cfg) }

// Placement selects consumer-side (paper) or producer-side assertion
// execution for the pressure signals (ablation).
type Placement = target.Placement

// The placements.
const (
	PlacementConsumer = target.PlacementConsumer
	PlacementProducer = target.PlacementProducer
)
