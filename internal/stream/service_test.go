package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testTrace memoizes plant traces per test binary: running the physics
// is the expensive part of these tests.
var traceCache = map[int64][]TraceRow{}

func testTrace(t *testing.T, seed int64) []TraceRow {
	t.Helper()
	if rows, ok := traceCache[seed]; ok {
		return rows
	}
	rows, err := NominalTrace(2000, 14000, 55, seed)
	if err != nil {
		t.Fatal(err)
	}
	traceCache[seed] = rows
	return rows
}

// faultyTraces builds per-stream traces: nominal for even streams,
// bit-flipped (the paper's data-error model) for odd ones.
func faultyTraces(t *testing.T, streams int) map[uint32][]TraceRow {
	t.Helper()
	out := make(map[uint32][]TraceRow, streams)
	for id := 0; id < streams; id++ {
		rows := testTrace(t, int64(id%3))
		if id%2 == 1 {
			// Stream-dependent fault: high bit of a different signal at a
			// different tick per stream.
			rows = FlipBit(rows, 100+17*id, id%NumSignals, 15)
			rows = FlipBit(rows, 900+31*id, (id+3)%NumSignals, 14)
		}
		out[uint32(id)] = rows
	}
	return out
}

// interleave renders per-stream traces as one payload of mixed-stream
// batches, round-robin across streams, batchSize records per batch.
func interleave(traces map[uint32][]TraceRow, streams, batchSize int) []byte {
	var recs []Record
	maxLen := 0
	for _, rows := range traces {
		if len(rows) > maxLen {
			maxLen = len(rows)
		}
	}
	for i := 0; i < maxLen; i++ {
		for id := 0; id < streams; id++ {
			rows := traces[uint32(id)]
			if i < len(rows) {
				recs = append(recs, Record{Stream: uint32(id), Tick: rows[i].Tick, Values: rows[i].Values})
			}
		}
	}
	var payload []byte
	for off := 0; off < len(recs); off += batchSize {
		end := off + batchSize
		if end > len(recs) {
			end = len(recs)
		}
		payload = AppendBatch(payload, recs[off:end])
	}
	return payload
}

func TestNominalReplayYieldsNoDetections(t *testing.T) {
	svc, err := New(Config{Shards: 2, MaxStreams: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	payload := EncodeTrace(nil, 5, testTrace(t, 0), 500, false)
	accepted, dropped, err := svc.Ingest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || accepted != 2000 {
		t.Fatalf("accepted %d dropped %d, want 2000/0", accepted, dropped)
	}
	var det bytes.Buffer
	if err := svc.DetectionsTo(&det); err != nil {
		t.Fatal(err)
	}
	if det.Len() != 0 {
		t.Errorf("fault-free replay produced detections:\n%s", det.String())
	}
	m := svc.Metrics()
	if m.Samples != 2000 || m.Detections != 0 {
		t.Errorf("metrics: samples %d detections %d, want 2000/0", m.Samples, m.Detections)
	}
}

// TestObserverEquivalence is the headline guarantee: a sharded service
// and the inline reference observer, fed the same interleaved
// multi-stream payload with injected faults, report byte-identical
// canonical detections.
func TestObserverEquivalence(t *testing.T) {
	const streams = 6
	traces := faultyTraces(t, streams)
	payload := interleave(traces, streams, 96)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc, err := New(Config{Shards: shards, MaxStreams: streams})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if _, _, err := svc.Ingest(payload); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := svc.DetectionsTo(&got); err != nil {
				t.Fatal(err)
			}

			in := NewInline(streams)
			if err := in.Ingest(payload); err != nil {
				t.Fatal(err)
			}
			want, err := in.Detections()
			if err != nil {
				t.Fatal(err)
			}

			cGot := CanonicalizeDetections(got.Bytes())
			cWant := CanonicalizeDetections(want)
			if len(cWant) == 0 {
				t.Fatal("fault injection produced no detections; the test is vacuous")
			}
			if !bytes.Equal(cGot, cWant) {
				t.Errorf("observers diverge:\nservice:\n%s\ninline:\n%s", cGot, cWant)
			}
		})
	}
}

// TestStreamStatsDuringIngest reads streams' stats through the routed
// request while another goroutine keeps ingesting faulty traces. Run
// under -race (CI does), it proves the stats path shares no memory with
// the shard's hot path. Every reply must be a snapshot between two
// chunks: each of a stream's monitors tested every applied sample
// exactly once, so tests equal samples on all seven, violations never
// exceed tests, the detections are the violations' sum, and samples
// never go backwards.
func TestStreamStatsDuringIngest(t *testing.T) {
	const streams = 4
	traces := faultyTraces(t, streams)
	svc, err := New(Config{Shards: 2, MaxStreams: streams})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done := make(chan error, 1)
	go func() {
		// Small batches interleave the readers' requests with many chunks.
		done <- func() error {
			for start := 0; start < 2000; start += 100 {
				for id := uint32(0); id < streams; id++ {
					rows := traces[id][start : start+100]
					if _, _, err := svc.Ingest(EncodeTrace(nil, id, rows, 25, start == 0)); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()

	// check reads stream id's stats and returns its samples, which must
	// not fall below last.
	check := func(id uint32, last uint64) (uint64, error) {
		stats, samples, detections, _, ok := svc.StreamStats(id)
		if !ok {
			return last, nil
		}
		if len(stats) != NumSignals {
			return 0, fmt.Errorf("stream %d: %d monitors, want %d", id, len(stats), NumSignals)
		}
		var violations uint64
		for _, m := range stats {
			if m.Violations > m.Tests {
				return 0, fmt.Errorf("stream %d %s: violations %d > tests %d", id, m.Name, m.Violations, m.Tests)
			}
			if m.Tests != samples {
				return 0, fmt.Errorf("stream %d %s: tests %d, samples %d: not a snapshot between chunks", id, m.Name, m.Tests, samples)
			}
			violations += m.Violations
		}
		if detections != violations {
			return 0, fmt.Errorf("stream %d: detections %d, violations %d", id, detections, violations)
		}
		if samples < last {
			return 0, fmt.Errorf("stream %d: samples went backwards: %d -> %d", id, last, samples)
		}
		return samples, nil
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [streams]uint64
			for {
				select {
				case err := <-done:
					done <- err
					return
				default:
				}
				for id := uint32(0); id < streams; id++ {
					var err error
					if last[id], err = check(id, last[id]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	var detections uint64
	for id := uint32(0); id < streams; id++ {
		if got, err := check(id, 0); err != nil || got != 2000 {
			t.Errorf("stream %d: %d samples after the flush (%v), want 2000", id, got, err)
		}
		_, _, det, _, _ := svc.StreamStats(id)
		detections += det
	}
	if detections == 0 {
		t.Error("faulty streams produced no detections; the violation checks are vacuous")
	}
	if m := svc.Metrics(); m.Samples != streams*2000 || m.Detections != detections {
		t.Errorf("metrics: samples %d detections %d, want %d/%d", m.Samples, m.Detections, streams*2000, detections)
	}
}

// TestStreamReconnectReuse pins the recycle contract end to end: a
// stream that reconnects replays from tick 0. Without FlagReset the
// stale previous values of the old session smear spurious violations;
// with it the replay is clean and the lifetime counters span both
// sessions.
func TestStreamReconnectReuse(t *testing.T) {
	rows := testTrace(t, 0)

	svc, err := New(Config{Shards: 1, MaxStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Session 1 on stream 0 and, without reset, session 2 on stream 1:
	// stream 1's "reconnect" does not announce itself.
	session := EncodeTrace(nil, 0, rows, 500, false)
	if _, _, err := svc.Ingest(session); err != nil {
		t.Fatal(err)
	}
	dirty := EncodeTrace(nil, 1, rows, 500, false)
	dirty = EncodeTrace(dirty, 1, rows, 500, false)
	if _, _, err := svc.Ingest(dirty); err != nil {
		t.Fatal(err)
	}
	// Session 2 on stream 0 announces the reconnect.
	clean := EncodeTrace(nil, 0, rows, 500, true)
	if _, _, err := svc.Ingest(clean); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	_, samples, det0, _, ok := svc.StreamStats(0)
	if !ok {
		t.Fatal("stream 0 unknown")
	}
	if samples != 2*uint64(len(rows)) {
		t.Errorf("stream 0 samples = %d across sessions, want %d", samples, 2*len(rows))
	}
	if det0 != 0 {
		t.Errorf("reconnect with FlagReset produced %d spurious detections", det0)
	}
	_, _, det1, _, ok := svc.StreamStats(1)
	if !ok {
		t.Fatal("stream 1 unknown")
	}
	if det1 == 0 {
		t.Error("reconnect without FlagReset was spuriously clean; the control leg proves nothing")
	}

	stats, _, _, _, _ := svc.StreamStats(0)
	var tests uint64
	for _, st := range stats {
		tests += st.Tests
	}
	if tests != 2*uint64(len(rows))*NumSignals {
		t.Errorf("monitor lifetime tests = %d, want %d: accounting must span sessions", tests, 2*len(rows)*NumSignals)
	}
}

func TestUnknownModeRejectsRecord(t *testing.T) {
	svc, err := New(Config{Shards: 1, MaxStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rows := testTrace(t, 0)[:10]
	recs := make([]Record, 0, len(rows))
	for i, r := range rows {
		rec := Record{Stream: 0, Tick: r.Tick, Values: r.Values}
		if i == 0 {
			// The Table 4 suite has only mode 0. The bad record leads the
			// stream: a rejected record mid-stream would additionally gap
			// the strict-increment signals (mscnt jumps by 2), which is a
			// real violation, not a leak.
			rec.Mode = 9
		}
		recs = append(recs, rec)
	}
	if _, _, err := svc.Ingest(AppendBatch(nil, recs)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, samples, det, rejected, _ := svc.StreamStats(0)
	if rejected != 1 || samples != uint64(len(rows)-1) {
		t.Errorf("samples %d rejected %d, want %d/1", samples, rejected, len(rows)-1)
	}
	if det != 0 {
		t.Errorf("a rejected record leaked %d violations into the detection journal", det)
	}
}

func TestBackpressureShed(t *testing.T) {
	svc, err := NewUnstarted(Config{Shards: 1, MaxStreams: 4, QueueBatches: 1, Policy: PolicyShed})
	if err != nil {
		t.Fatal(err)
	}
	rows := testTrace(t, 0)[:100]
	payload := EncodeTrace(nil, 0, rows, 100, false)

	a1, d1, err := svc.Ingest(payload)
	if err != nil || a1 != 100 || d1 != 0 {
		t.Fatalf("first ingest: %d/%d, %v; want 100/0", a1, d1, err)
	}
	a2, d2, err := svc.Ingest(payload) // queue full: shed whole
	if err != nil || a2 != 0 || d2 != 100 {
		t.Fatalf("second ingest: %d/%d, %v; want 0/100", a2, d2, err)
	}
	svc.DrainQueued()
	m := svc.Metrics()
	if m.DroppedSamples != 100 || m.DroppedBatches != 1 {
		t.Errorf("dropped samples %d batches %d, want 100/1", m.DroppedSamples, m.DroppedBatches)
	}
	if m.Samples != 100 {
		t.Errorf("applied %d samples, want exactly the accepted 100", m.Samples)
	}
}

func TestBackpressureBlockNeverDrops(t *testing.T) {
	svc, err := New(Config{Shards: 2, MaxStreams: 8, QueueBatches: 1, Policy: PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rows := testTrace(t, 0)[:200]
	total := 0
	for id := uint32(0); id < 8; id++ {
		payload := EncodeTrace(nil, id, rows, 25, false)
		a, d, err := svc.Ingest(payload)
		if err != nil || d != 0 {
			t.Fatalf("stream %d: dropped %d, err %v", id, d, err)
		}
		total += a
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.Samples != uint64(total) || m.DroppedSamples != 0 {
		t.Errorf("applied %d dropped %d, want %d/0", m.Samples, m.DroppedSamples, total)
	}
}

// TestCloseDrainsToJournalFiles proves the shutdown contract: Close
// returns only after every accepted sample is applied and the on-disk
// journals are complete, and the files agree with the inline observer.
func TestCloseDrainsToJournalFiles(t *testing.T) {
	dir := t.TempDir()
	const streams = 4
	traces := faultyTraces(t, streams)
	payload := interleave(traces, streams, 64)

	svc, err := New(Config{Shards: 2, MaxStreams: streams, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Ingest(payload); err != ErrClosed {
		t.Errorf("Ingest after Close: %v, want ErrClosed", err)
	}

	var got []byte
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("detections-%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
	}
	in := NewInline(streams)
	if err := in.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	want, err := in.Detections()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(CanonicalizeDetections(got), CanonicalizeDetections(want)) {
		t.Error("journal files after Close diverge from the inline observer")
	}
}

// TestDetectionJournalCutMidWrite is the stream-side half of the
// shared truncation-tolerance contract (the journal-side half is
// TestLineBatcherCutMidWriteTolerance): a journal cut at an arbitrary
// byte keeps every complete detection line.
func TestDetectionJournalCutMidWrite(t *testing.T) {
	dir := t.TempDir()
	const streams = 4
	traces := faultyTraces(t, streams)
	svc, err := New(Config{Shards: 1, MaxStreams: streams, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Ingest(interleave(traces, streams, 64)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, "detections-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) == 0 {
		t.Fatal("no detections to cut; the test is vacuous")
	}
	for cut := len(whole) - 1; cut > len(whole)-40 && cut > 0; cut-- {
		kept := CompleteLines(whole[:cut])
		if !bytes.HasPrefix(whole, kept) {
			t.Fatalf("cut at %d: recovered lines are not a prefix of the journal", cut)
		}
		if tail := whole[len(kept):cut]; bytes.Contains(tail, []byte("\n")) {
			t.Fatalf("cut at %d: partial tail still holds a complete line", cut)
		}
	}
}

func TestHTTPAPI(t *testing.T) {
	const streams = 4
	traces := faultyTraces(t, streams)
	payload := interleave(traces, streams, 64)

	svc, err := New(Config{Shards: 2, MaxStreams: streams})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var ack IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Dropped != 0 || ack.Accepted == 0 {
		t.Fatalf("ingest: status %d ack %+v", resp.StatusCode, ack)
	}

	// Invalid payload: rejected whole, nothing applied.
	bad := AppendBatch(nil, []Record{{Stream: 999}})
	resp, err = http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range stream: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/api/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("flush: status %d, want 204", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Samples != uint64(ack.Accepted) || m.Shards != 2 || len(m.PerShard) != 2 {
		t.Errorf("metrics %+v inconsistent with ingest ack %+v", m, ack)
	}
	if m.Detections == 0 || m.SignalsPerSec <= 0 || m.P99TickLatencyNs == 0 {
		t.Errorf("metrics %+v missing derived figures", m)
	}

	resp, err = http.Get(srv.URL + "/api/v1/detections")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	in := NewInline(streams)
	if err := in.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	want, _ := in.Detections()
	if !bytes.Equal(CanonicalizeDetections(got), CanonicalizeDetections(want)) {
		t.Error("HTTP detections diverge from the inline observer")
	}

	resp, err = http.Get(srv.URL + "/api/v1/streams/1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StreamStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Stream != 1 || st.Samples == 0 || len(st.Monitors) != NumSignals {
		t.Errorf("stream stats %+v", st)
	}
	if st.Detections == 0 {
		t.Error("stream 1 carries injected faults; expected detections")
	}

	resp, err = http.Get(srv.URL + "/api/v1/streams/99/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream: status %d, want 404", resp.StatusCode)
	}
}
