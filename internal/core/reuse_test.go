package core

import "testing"

// TestMonitorReuseAcrossSessions pins the reuse contract the stream
// service depends on when a stream reconnects and its monitor
// instances are recycled: Reset makes the next observation a first
// observation (bounds/domain only), keeps the active mode, and keeps
// the lifetime counters accumulating across sessions.
func TestMonitorReuseAcrossSessions(t *testing.T) {
	modes := map[int]Continuous{
		0: {Min: 0, Max: 100, Incr: Rate{0, 2}, Decr: Rate{0, 2}},
		1: {Min: 0, Max: 1000, Incr: Rate{0, 500}, Decr: Rate{0, 500}},
	}
	m, err := NewContinuous("sig", ContinuousRandom, modes)
	if err != nil {
		t.Fatal(err)
	}

	// Session 1: prime, violate once, switch modes mid-stream.
	m.Test(0, 10)
	if _, v := m.Test(1, 50); v == nil {
		t.Fatal("mode 0: jump of 40 with rate 2 not flagged")
	}
	if err := m.SetMode(1); err != nil {
		t.Fatal(err)
	}
	// SetMode keeps s': the transition into mode 1 is rate-checked
	// against the new parameters (50 -> 400 is legal at rate 500).
	if _, v := m.Test(2, 400); v != nil {
		t.Fatalf("mode switch transition flagged: %v", v)
	}
	tests, viols := m.Tests(), m.Violations()

	// Reconnect: the service resets the recycled instance.
	m.Reset()
	if m.mode != 1 {
		t.Fatalf("Reset changed the mode to %d; the contract keeps it", m.mode)
	}
	// First observation of the new session: bounds only, no rate test
	// against the stale s' of the previous session.
	if _, v := m.Test(100, 900); v != nil {
		t.Fatalf("post-reset first observation rate-checked against stale s': %v", v)
	}
	if _, v := m.Test(101, 1500); v == nil {
		t.Fatal("post-reset bounds test inactive")
	}
	if m.Tests() != tests+2 || m.Violations() != viols+1 {
		t.Fatalf("counters = (%d, %d) after reuse, want (%d, %d): lifetime accounting must span sessions",
			m.Tests(), m.Violations(), tests+2, viols+1)
	}
}

// TestMonitorDiscreteReuseAcrossSessions is the discrete half of the
// reuse contract: after Reset a sequential signal's first observation
// is checked for domain membership only, not for a transition from the
// previous session's last value.
func TestMonitorDiscreteReuseAcrossSessions(t *testing.T) {
	m, err := NewDiscreteSingle("slot", DiscreteSequentialLinear,
		NewLinear([]int64{0, 1, 2, 3}, true, false))
	if err != nil {
		t.Fatal(err)
	}
	m.Test(0, 0)
	m.Test(1, 1)
	m.Reset()
	// 3 is not a legal transition from 1, but it is in the domain: a
	// fresh session may start anywhere in D.
	if _, v := m.Test(2, 3); v != nil {
		t.Fatalf("post-reset domain-legal start flagged: %v", v)
	}
	if _, v := m.Test(3, 9); v == nil {
		t.Fatal("domain test inactive after reuse")
	}
}
