package stream

import (
	"testing"

	"easig/internal/core"
)

// TestTrySetModeRollbackRestoresParameters pins the all-or-nothing mode
// switch: when the last monitor has no parameter set for the new mode,
// the monitors already switched are rolled back and then judge by the
// old mode's parameters again, not by the ones they briefly switched
// to.
func TestTrySetModeRollbackRestoresParameters(t *testing.T) {
	wide := core.Continuous{Min: 0, Max: 100, Incr: core.Rate{Max: 100}, Decr: core.Rate{Max: 100}}
	tight := core.Continuous{Min: 0, Max: 10, Incr: core.Rate{Max: 100}, Decr: core.Rate{Max: 100}}
	st := &streamState{}
	for k := range st.monitors {
		modes := map[int]core.Continuous{0: wide, 1: tight, 2: wide}
		if k == len(st.monitors)-1 {
			delete(modes, 2)
		}
		m, err := core.NewContinuous("sig", core.ContinuousRandom, modes, core.WithRecovery(core.NoRecovery{}))
		if err != nil {
			t.Fatal(err)
		}
		st.monitors[k] = m
	}
	// rejects50 reports per monitor whether 50, inside wide and above
	// tight's smax, is flagged under the monitor's active parameters.
	rejects50 := func(want bool, when string) {
		t.Helper()
		for k, m := range st.monitors {
			m.Reset()
			if _, v := m.Test(0, 50); (v != nil) != want {
				t.Errorf("%s: monitor %d flagged 50 = %v, want %v", when, k, v != nil, want)
			}
		}
	}
	if !st.trySetMode(1) {
		t.Fatal("switch to mode 1, known to every monitor, refused")
	}
	rejects50(true, "after the switch to mode 1")
	if st.trySetMode(2) {
		t.Fatal("switch to a mode the last monitor lacks succeeded")
	}
	if st.mode != 1 {
		t.Fatalf("stream mode = %d after a refused switch, want 1", st.mode)
	}
	rejects50(true, "after the refused switch to mode 2")
}
