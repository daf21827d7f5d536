package core

// DetectionSink receives violations from monitors. In the paper's
// experiment the target reports detection by raising a digital output
// pin that the fault-injection campaign computer time-stamps; a sink is
// the software analogue of that pin.
type DetectionSink interface {
	// Detect is called once per failed executable assertion.
	Detect(v Violation)
}

// SinkFunc adapts a function to the DetectionSink interface.
type SinkFunc func(v Violation)

// Detect implements DetectionSink.
func (f SinkFunc) Detect(v Violation) { f(v) }

// Recorder is a DetectionSink that stores every violation, mirroring
// what the paper's FIC3 records. The zero value is ready to use.
// Recorder is not safe for concurrent use; the simulation kernel is
// single-goroutine per run.
type Recorder struct {
	violations []Violation
}

var _ DetectionSink = (*Recorder)(nil)

// Detect implements DetectionSink.
func (r *Recorder) Detect(v Violation) { r.violations = append(r.violations, v) }

// Detected reports whether at least one violation was recorded.
func (r *Recorder) Detected() bool { return len(r.violations) > 0 }

// Count returns the number of recorded violations.
func (r *Recorder) Count() int { return len(r.violations) }

// Violations returns a copy of the recorded violations in detection
// order.
func (r *Recorder) Violations() []Violation {
	return append([]Violation(nil), r.violations...)
}

// Reset clears the recorder for reuse between experiment runs.
func (r *Recorder) Reset() { r.violations = r.violations[:0] }
