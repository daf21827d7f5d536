package stream

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/target"
)

// streamState is the monitoring state of one plant stream: its own
// instances of the seven Table 4 assertion monitors, a suite wrapping
// them for accounting, and per-stream counters. A streamState is owned
// by exactly one applier goroutine (its shard, or an Inline reference),
// counters included: other goroutines read them only through a stats
// request that the owning shard answers between chunks.
//
// The identical apply path is what makes the observer-equivalence
// guarantee hold by construction: the service's shards and the Inline
// reference both funnel records through streamState.apply, so they can
// only diverge if the wire bytes differ.
type streamState struct {
	id       uint32
	mode     int
	monitors [NumSignals]*core.Monitor
	suite    *core.Suite

	samples  uint64
	rejected uint64
}

// newStreamState builds a stream's monitors with recovery disabled
// (the service is an observer: it reports errors, it cannot reach into
// the plant to repair values) and a sink that renders each violation
// as a detection line on out.
func newStreamState(id uint32, out *detSink) (*streamState, error) {
	st := &streamState{id: id, suite: core.NewSuite()}
	sink := core.SinkFunc(func(v core.Violation) { out.add(id, v) })
	for k := 0; k < NumSignals; k++ {
		m, err := target.NewSignalMonitor(k,
			core.WithRecovery(core.NoRecovery{}),
			core.WithSink(sink))
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", id, err)
		}
		st.monitors[k] = m
		if err := st.suite.Add(m); err != nil {
			return nil, fmt.Errorf("stream %d: %w", id, err)
		}
	}
	return st, nil
}

// apply runs one encoded sample record (RecordBytes long, stream field
// already verified to be this stream) through the monitors. It
// allocates nothing. The returned flag reports whether the record was
// rejected because its mode is unknown to the monitors; rejected
// records are not tested at all, so one bad mode byte cannot smear a
// burst of spurious violations across all seven signals.
func (st *streamState) apply(rec []byte) (rejected bool) {
	if rec[8]&FlagReset != 0 {
		for _, m := range st.monitors {
			m.Reset()
		}
	}
	if mode := int(rec[9]); mode != st.mode {
		if !st.trySetMode(mode) {
			st.rejected++
			return true
		}
	}
	tick := int64(be32(rec[4:]))
	for k, m := range st.monitors {
		m.Test(tick, int64(be16(rec[10+2*k:])))
	}
	st.samples++
	return false
}

// trySetMode switches every monitor to mode, all or nothing: if any
// monitor has no parameter set for it, the ones already switched are
// rolled back and the stream stays in its current mode.
func (st *streamState) trySetMode(mode int) bool {
	for k, m := range st.monitors {
		if err := m.SetMode(mode); err != nil {
			for j := 0; j < k; j++ {
				st.monitors[j].SetMode(st.mode)
			}
			return false
		}
	}
	st.mode = mode
	return true
}

// streamStats is one stream's accounting, as its shard reports it.
type streamStats struct {
	monitors                      []core.MonitorStats
	samples, detections, rejected uint64
}

// stats snapshots the stream's accounting; only the owner may call it.
// Every detection is one monitor violation, so the stream's detections
// are their sum.
func (st *streamState) stats() streamStats {
	out := streamStats{monitors: st.suite.Stats(), samples: st.samples, rejected: st.rejected}
	for _, m := range out.monitors {
		out.detections += m.Violations
	}
	return out
}
