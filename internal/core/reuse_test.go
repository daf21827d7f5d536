package core

import (
	"sync"
	"testing"
)

// TestSuiteStatsConcurrentWithTicking hammers Stats from several reader
// goroutines while one goroutine keeps driving the suite's monitors —
// the exact shape of the stream service, whose shard goroutines tick
// live suites that the metrics endpoint snapshots. Run under -race (CI
// does), this is the proof obligation for the concurrent-Stats
// contract; without it the test still checks that snapshots are
// monotonic and well-formed.
func TestSuiteStatsConcurrentWithTicking(t *testing.T) {
	s := suiteWithMonitors(t)
	const ticks = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ticks; i++ {
			// Mix accepted and violating observations on both monitors.
			s.Test(int64(i), "temp", int64(i%120))
			s.Test(int64(i), "mode", int64(i%4))
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTests uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				stats := s.Stats()
				if len(stats) != 2 {
					t.Errorf("Stats returned %d rows, want 2", len(stats))
					return
				}
				var total uint64
				for _, st := range stats {
					if st.Violations > st.Tests {
						t.Errorf("%s: violations %d > tests %d", st.Name, st.Violations, st.Tests)
						return
					}
					total += st.Tests
				}
				if total < lastTests {
					t.Errorf("total tests went backwards: %d -> %d", lastTests, total)
					return
				}
				lastTests = total
			}
		}()
	}
	<-done
	wg.Wait()

	stats := s.Stats()
	var total uint64
	for _, st := range stats {
		total += st.Tests
	}
	if total != 2*ticks {
		t.Fatalf("final test count = %d, want %d", total, 2*ticks)
	}
}

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
