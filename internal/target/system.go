package target

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/physics"
)

// SystemConfig configures one built instance of the target software.
// The zero value of every field is a sensible default: default physics,
// the 14-tonne nominal test case is NOT defaulted (a zero TestCase is
// rejected by physics.NewEnv), VersionAll on both nodes, no sinks,
// detection-only (no recovery), consumer placement.
type SystemConfig struct {
	// Constants overrides the physical constants (nil = defaults).
	Constants *physics.Constants
	// ForceTable overrides the structural force limit table (nil =
	// defaults).
	ForceTable *physics.ForceTable
	// TestCase is the arrestment scenario (mass, engagement velocity).
	TestCase physics.TestCase
	// Seed seeds the environment's sensor-noise generator.
	Seed int64
	// Version selects the master node's assertion build.
	Version Version
	// Sink receives the master's assertion violations (nil = discard).
	Sink core.DetectionSink
	// Recovery is applied by both nodes' monitors after a violation
	// (nil = NoRecovery: detect and keep the corrupted value).
	Recovery core.RecoveryPolicy
	// Placement selects consumer-side (Table 4) or producer-side
	// assertion placement on both nodes.
	Placement Placement
	// SlaveVersion selects the slave node's assertion build. The zero
	// value is VersionAll, matching the paper's uniform builds; use
	// VersionNone to strip the slave.
	SlaveVersion Version
	// SlaveSink receives the slave's assertion violations (nil =
	// discard).
	SlaveSink core.DetectionSink
}

// System is the complete arresting system: the physical environment,
// the master node and the slave node coupled by the set-point link.
type System struct {
	env    *physics.Env
	lnk    link
	master *Node
	slave  *Node
}

// NewSystem boots the target software against a fresh environment.
func NewSystem(cfg SystemConfig) (*System, error) {
	cst := physics.DefaultConstants()
	if cfg.Constants != nil {
		cst = *cfg.Constants
	}
	table := physics.DefaultForceTable()
	if cfg.ForceTable != nil {
		table = *cfg.ForceTable
	}
	if !cfg.Version.Valid() {
		return nil, fmt.Errorf("target: invalid version %d", int(cfg.Version))
	}
	if !cfg.SlaveVersion.Valid() {
		return nil, fmt.Errorf("target: invalid slave version %d", int(cfg.SlaveVersion))
	}
	recovery := cfg.Recovery
	if recovery == nil {
		recovery = core.NoRecovery{}
	}

	env, err := physics.NewEnv(cst, table, cfg.TestCase, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys := &System{env: env}
	sys.master, err = newNode(true, physics.DrumMaster, env, &sys.lnk,
		cfg.Version, cfg.Sink, recovery, cfg.Placement, cfg.TestCase.MassKg)
	if err != nil {
		return nil, err
	}
	sys.slave, err = newNode(false, physics.DrumSlave, env, &sys.lnk,
		cfg.SlaveVersion, cfg.SlaveSink, recovery, cfg.Placement, cfg.TestCase.MassKg)
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// StepMs advances the system by one millisecond: both nodes take their
// 1 ms interrupt against the current environment state, then the
// environment integrates the physics.
func (s *System) StepMs() {
	now := s.env.NowMs()
	s.master.tick(now)
	s.slave.tick(now)
	s.env.StepMs()
}

// RunMs advances the system n milliseconds.
func (s *System) RunMs(n int) {
	for k := 0; k < n; k++ {
		s.StepMs()
	}
}

// Master returns the master node.
func (s *System) Master() *Node { return s.master }

// Env returns the physical environment.
func (s *System) Env() *physics.Env { return s.env }
