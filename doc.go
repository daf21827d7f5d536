// Package easig is a Go implementation of the signal-classification
// scheme and executable assertions of Hiller, "Executable Assertions
// for Detecting Data Errors in Embedded Control Systems" (DSN 2000),
// together with a full reproduction of the paper's fault-injection
// evaluation.
//
// # The mechanisms
//
// A signal is classified per the paper's Figure 1 as continuous
// (random, static monotonic, dynamic monotonic) or discrete (random,
// linear sequential, non-linear sequential) and instantiated with a
// per-signal parameter set: value bounds, change-rate limits and
// wrap-around capability for continuous signals (Pcont); the valid
// value domain and valid-transition sets for discrete ones (Pdisc).
// Generic, formally checkable test algorithms (the paper's Tables 2
// and 3) then detect data errors as constraint violations:
//
//	m, err := easig.NewContinuousMonitor("temp", easig.ContinuousRandom, easig.Continuous{
//		Min: -40, Max: 125,
//		Incr: easig.Rate{Min: 0, Max: 3},
//		Decr: easig.Rate{Min: 0, Max: 3},
//	})
//	...
//	accepted, violation := m.Test(nowMs, sample)
//
// Monitors support per-mode parameter sets, pluggable recovery
// policies ("the signal can be returned to a valid state"), detection
// sinks, and calibration from fault-free traces.
//
// # The reproduction
//
// The repository also contains the paper's complete case study: the
// aircraft-arresting control system (master and slave nodes with
// memory-mapped state in the paper's 417-byte RAM and 1008-byte stack
// regions), the barrier/aircraft environment simulator, the SWIFI
// campaign controller with error sets E1 and E2, and the harness
// regenerating Tables 6-9 and Figure 2. Campaigns journal every run,
// report live progress, and resume from their journal after an
// interruption with byte-identical tables. This package exposes single
// runs of the case study (NewArrestingSystem, Run, BuildE1); the
// campaigns run through cmd/fic. See the cmd/fic and cmd/arrest tools,
// the examples directory, EXPERIMENTS.md for paper-versus-measured
// results, and ARCHITECTURE.md for the package map, the run-loop data
// flow and the determinism contract behind campaign resume and behind
// sharded campaigns (fic -cases and fic merge), whose merged tables
// are byte-identical to a single-process run.
//
// # What this package exports
//
// This package is the library API that the examples, cmd/arrest and
// cmd/sigmon use; the campaign tools (fic, sigmond and the repository
// benchmark) import the internal packages.
package easig
