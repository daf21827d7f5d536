// Statemachine: protect a state variable with the discrete-signal
// assertions of the paper's Table 3, using the exact state machine of
// the paper's Figure 3.
//
// The figure defines five states v1..v5 with the valid domain
// D = {v1..v5} and the transition sets
//
//	T(v1) = {v2, v4}   T(v2) = {v3, v4}   T(v3) = {v4}
//	T(v4) = {v5}       T(v5) = {v1}
//
// The monitor detects both domain errors (a corrupted state outside
// D) and transition errors (a jump the machine cannot legally make).
//
// Run with: go run ./examples/statemachine
package main

import (
	"fmt"

	"easig"
)

// The states of Figure 3.
const (
	v1 = int64(iota + 1)
	v2
	v3
	v4
	v5
)

var stateName = map[int64]string{v1: "v1", v2: "v2", v3: "v3", v4: "v4", v5: "v5"}

// diagnosis says what each failed Table 3 assertion means for a state
// variable.
var diagnosis = map[easig.TestID]string{
	easig.TestDomain:     "outside D: the stored state is corrupt",
	easig.TestTransition: "not in T(previous state): an illegal jump",
}

func main() {
	params := easig.Discrete{
		Domain: []int64{v1, v2, v3, v4, v5},
		Trans: map[int64][]int64{
			v1: {v2, v4},
			v2: {v3, v4},
			v3: {v4},
			v4: {v5},
			v5: {v1},
		},
	}
	monitor, err := easig.NewDiscreteMonitor(
		"figure3_state",
		easig.DiscreteSequentialNonLinear,
		params,
		// On a violation, fall back to a safe state: v1.
		easig.WithRecovery(easig.ResetTo{Value: v1}),
	)
	if err != nil {
		panic(err)
	}

	show := func(t int64, s int64) {
		accepted, violation := monitor.Test(t, s)
		name := stateName[s]
		if name == "" {
			name = fmt.Sprintf("corrupt(%d)", s)
		}
		if violation == nil {
			fmt.Printf("t=%2d: state %s ok\n", t, name)
			return
		}
		fmt.Printf("t=%2d: state %s REJECTED (%v test, %s) -> recovered to %s\n",
			t, name, violation.Test, diagnosis[violation.Test], stateName[accepted])
	}

	fmt.Println("walking a legal path: v1 -> v2 -> v4 -> v5 -> v1 -> v4 -> v5")
	for t, s := range []int64{v1, v2, v4, v5, v1, v4, v5} {
		show(int64(t), s)
	}

	fmt.Println("\nan illegal transition: v5 -> v3 (T(v5) = {v1})")
	show(10, v3)

	fmt.Println("\na domain error: bit flip turns v2 (=2) into 34")
	show(11, v2) // back on a legal footing first (T(v1) = {v2, v4})
	show(12, v2|32)

	fmt.Printf("\ndone: %d tests, %d violations\n", monitor.Tests(), monitor.Violations())
}
