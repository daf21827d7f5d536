package target

import (
	"fmt"

	"easig/internal/core"
)

// NewSignalMonitor builds a fresh Table 4 executable-assertion monitor
// for signal index k (0..NumEAs-1): the signal's name, Figure 1 class
// and calibrated parameter set, exactly as a node instantiates them at
// boot. The stream service uses this to give every monitored plant
// stream its own instances of the paper's assertions, so an external
// observer fed the same samples detects the same violations as the
// inline monitors (the observer-equivalence guarantee of SIGMOND.md).
func NewSignalMonitor(k int, opts ...core.MonitorOption) (*core.Monitor, error) {
	if k < 0 || k >= NumEAs {
		return nil, fmt.Errorf("target: no signal %d (want 0..%d)", k, NumEAs-1)
	}
	names, classes := SignalNames(), SignalClasses()
	if classes[k].IsContinuous() {
		return core.NewContinuousSingle(names[k], classes[k], eaContinuous(k), opts...)
	}
	return core.NewDiscreteSingle(names[k], classes[k], eaDiscrete()[k], opts...)
}
