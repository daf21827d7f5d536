package easig_test

import (
	"fmt"

	"easig"
)

// A continuous sensor signal protected by the Table 2 assertions: the
// corrupted sample violates the rate constraint and is recovered to
// the previous value.
func ExampleNewContinuousMonitor() {
	monitor, err := easig.NewContinuousMonitor("rpm", easig.ContinuousRandom,
		easig.Continuous{
			Min:  0,
			Max:  8000,
			Incr: easig.Rate{Min: 0, Max: 150},
			Decr: easig.Rate{Min: 0, Max: 150},
		},
		easig.WithRecovery(easig.PreviousValue{}),
	)
	if err != nil {
		panic(err)
	}
	for t, sample := range []int64{3000, 3080, 3105, 7201, 3210} {
		accepted, violation := monitor.Test(int64(t), sample)
		if violation != nil {
			fmt.Printf("t=%d: %d rejected (%v), recovered to %d\n",
				t, sample, violation.Test, accepted)
		}
	}
	// Output:
	// t=3: 7201 rejected (increase-rate), recovered to 3105
}

// The paper's Figure 3 state machine as a non-linear sequential
// discrete signal: illegal transitions and out-of-domain values are
// both detected.
func ExampleNewDiscreteMonitor() {
	monitor, err := easig.NewDiscreteMonitor("state", easig.DiscreteSequentialNonLinear,
		easig.Discrete{
			Domain: []int64{1, 2, 3, 4, 5},
			Trans: map[int64][]int64{
				1: {2, 4}, 2: {3, 4}, 3: {4}, 4: {5}, 5: {1},
			},
		})
	if err != nil {
		panic(err)
	}
	for t, state := range []int64{1, 2, 4, 5, 3} {
		if _, violation := monitor.Test(int64(t), state); violation != nil {
			fmt.Printf("state %d: %v test failed\n", state, violation.Test)
		}
	}
	// Output:
	// state 3: transition test failed
}

// Deriving a parameter-set proposal from a fault-free trace (the
// calibration workflow behind the target's Table 4 parameters).
func ExampleContinuousCalibrator() {
	var cal easig.ContinuousCalibrator
	for i := int64(0); i < 100; i++ {
		cal.Observe(i * 3) // a counter stepping by exactly 3
	}
	cal.EndRun()
	p, class, err := cal.Propose(easig.CalibrationOptions{BoundMargin: 0.1})
	if err != nil {
		panic(err)
	}
	fmt.Println(class)
	fmt.Printf("rate %d..%d\n", p.Incr.Min, p.Incr.Max)
	// Output:
	// Co/Mo/St
	// rate 3..3
}

// One fault-injection experiment run on the paper's target: a bit-flip
// in the millisecond counter is detected by EA6 within two injection
// periods.
func ExampleRun() {
	var mscntError easig.InjectionError
	for _, e := range easig.BuildE1() {
		if e.Signal == "mscnt" {
			mscntError = e
			break
		}
	}
	res, err := easig.Run(easig.RunConfig{
		TestCase: easig.TestCase{MassKg: 14000, VelocityMS: 55},
		Version:  easig.VersionAll,
		Error:    &mscntError,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("detected:", res.Detected)
	fmt.Println("latency under 40 ms:", res.LatencyMs < 40)
	// Output:
	// detected: true
	// latency under 40 ms: true
}
