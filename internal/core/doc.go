// Package core implements the signal classification scheme and the
// executable assertions of Hiller, "Executable Assertions for Detecting
// Data Errors in Embedded Control Systems" (DSN 2000).
//
// The paper's idea is that error detection for internal program signals
// does not need hand-written, ad-hoc acceptance tests. Instead, each
// signal is classified (Figure 1 of the paper) as either continuous
// (random, static monotonic, dynamic monotonic) or discrete (random,
// linear sequential, non-linear sequential), and a small set of generic
// test algorithms (Tables 2 and 3) is instantiated with per-signal
// parameters:
//
//   - continuous signals carry the parameter set Pcont =
//     {smin, smax, rmin/rmax for increase and decrease, wrap-around};
//   - discrete signals carry Pdisc = {D (valid value domain),
//     T(d) (valid transitions from each value d)}.
//
// A signal may behave differently in different phases of system
// operation, so a monitor can hold one parameter set per mode
// (paper §2.1, "Signal modes").
//
// The package provides:
//
//   - Class, the classification lattice of Figure 1;
//   - Continuous and Discrete, the parameter sets with the legality
//     rules of Table 1;
//   - CheckContinuous and CheckDiscrete, the assertion algorithms of
//     Tables 2 and 3;
//   - Monitor, a stateful per-signal tester that judges against the
//     previous value s' (held by the caller of Check, or by the monitor
//     for Test), dispatches per-mode parameters, reports violations to
//     a DetectionSink (the paper's "digital output pin") and applies a
//     RecoveryPolicy ("the signal can be returned to a valid state",
//     paper §2);
//   - ContinuousCalibrator, which derives parameter proposals from
//     fault-free traces (paper §2.2: "the parameters may be calibrated using fault
//     injection experiments").
//
// Values are int64 so that any integer-valued signal (the paper's target
// uses 16-bit words) fits without loss.
package core
