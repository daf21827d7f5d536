package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Header(Header{Experiment: "E1", Total: 3, Protocol: json.RawMessage(`{"seed":7}`)}); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Experiment: "E1", Version: 8, ErrIdx: 0, ErrID: "S1", CaseIdx: 0, Seed: 11, Detected: true, LatencyMs: 40, ByTest: map[int]int{1: 3}},
		{Experiment: "E1", Version: 8, ErrIdx: 0, ErrID: "S1", CaseIdx: 1, Seed: 12, Failed: true},
		{Experiment: "E1", Version: 8, ErrIdx: 1, ErrID: "S2", CaseIdx: 0, Seed: 13},
	}
	for _, r := range recs {
		if err := w.Run(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("clean journal flagged truncated")
	}
	if len(log.Headers) != 1 || string(log.Headers[0].Protocol) != `{"seed":7}` || log.Headers[0].Kind != KindHeader {
		t.Fatalf("headers = %+v", log.Headers)
	}
	if len(log.Runs) != len(recs) {
		t.Fatalf("got %d runs, want %d", len(log.Runs), len(recs))
	}
	got := log.Runs[0]
	if !got.Detected || got.LatencyMs != 40 || got.ByTest[1] != 3 || got.ErrID != "S1" {
		t.Errorf("run 0 round-trip: %+v", got)
	}

	byKey := log.Lookup("E1")
	if len(byKey) != 3 {
		t.Fatalf("Lookup returned %d entries", len(byKey))
	}
	if r, ok := byKey[Key{Version: 8, ErrIdx: 0, CaseIdx: 1}]; !ok || !r.Failed {
		t.Errorf("lookup by coordinates: %+v ok=%v", r, ok)
	}
	if _, ok := log.Header("E2"); ok {
		t.Error("found a header for an experiment never journaled")
	}
}

func TestLoadToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Header(Header{Experiment: "E1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(Record{Experiment: "E1", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"run","experiment":"E1","ver`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("truncated tail not flagged")
	}
	if len(log.Runs) != 1 {
		t.Errorf("got %d runs, want the 1 complete record", len(log.Runs))
	}
}

func TestLoadRejectsMalformedInteriorLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"kind":"header","experiment":"E1"}` + "\n" +
		"this is not a journal\n" +
		`{"kind":"run","experiment":"E1"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("malformed interior line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not locate the bad line: %v", err)
	}

	// Interior lines of a retired kind — the shard-ledger claim and
	// shard_done lines older builds wrote — are skipped, not an error,
	// so such journals still load.
	content = `{"kind":"header","experiment":"E1"}` + "\n" +
		`{"kind":"claim","experiment":"E1","campaign":"c1","shard":2,"cases":[2,3],"worker":"w1","granted_ms":1000,"lease_ms":30000}` + "\n" +
		`{"kind":"shard_done","experiment":"E1","campaign":"c1","shard":2,"worker":"w1","runs":224}` + "\n" +
		`{"kind":"run","experiment":"E1","seed":3}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := Load(path)
	if err != nil {
		t.Fatalf("journal with retired-kind lines refused: %v", err)
	}
	if len(log.Headers) != 1 || len(log.Runs) != 1 || log.Runs[0].Seed != 3 || log.Truncated {
		t.Errorf("journal with retired-kind lines read as %+v", log)
	}
}

func TestOpenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(Record{Experiment: "E1", ErrIdx: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(Record{Experiment: "E1", ErrIdx: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 2 {
		t.Fatalf("append lost records: %d runs", len(log.Runs))
	}
	// Lookup keeps the later occurrence when a run repeats.
	if err := func() error {
		w3, err := Open(path)
		if err != nil {
			return err
		}
		if err := w3.Run(Record{Experiment: "E1", ErrIdx: 2, Detected: true}); err != nil {
			return err
		}
		return w3.Close()
	}(); err != nil {
		t.Fatal(err)
	}
	log, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := log.Lookup("E1")[Key{ErrIdx: 2}]; r == nil || !r.Detected {
		t.Error("Lookup did not prefer the later duplicate")
	}
}

// Open must cut a truncated trailing line before appending: otherwise
// the first appended record fuses with the partial line into a
// malformed interior line, and the journal — loadable once, right
// before that first resume — becomes unloadable for every resume after.
func TestOpenRepairsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Run(Record{Experiment: "E1", ErrIdx: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill: cut the final line in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(Record{Experiment: "E1", ErrIdx: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatalf("journal unloadable after a resume appended to a truncated file: %v", err)
	}
	if log.Truncated {
		t.Error("repair left a partial line behind")
	}
	if len(log.Runs) != 3 {
		t.Errorf("got %d runs, want 2 surviving + 1 re-appended", len(log.Runs))
	}
}

// TestMergeShardJournals exercises the reduce step of a sharded
// campaign: shard journals merged out of order, with duplicate records
// from a re-executed shard, must agree on headers and keep Lookup's
// last-wins dedup semantics.
func TestMergeShardJournals(t *testing.T) {
	shard := func(total int, runs ...Record) *Log {
		return &Log{
			Headers: []Header{{Experiment: "E1", Total: total, Runner: "snapshot", Protocol: json.RawMessage(`{"grid":2,"policy":{"start_ms":500,"period_ms":20},"seed":7}`)}},
			Runs:    runs,
		}
	}
	a := shard(2,
		Record{Experiment: "E1", Version: 8, ErrIdx: 0, CaseIdx: 0, Seed: 11, Detected: true},
		Record{Experiment: "E1", Version: 8, ErrIdx: 1, CaseIdx: 0, Seed: 11})
	b := shard(2,
		Record{Experiment: "E1", Version: 8, ErrIdx: 0, CaseIdx: 1, Seed: 12},
		Record{Experiment: "E1", Version: 8, ErrIdx: 1, CaseIdx: 1, Seed: 12, Failed: true})
	// A duplicate of one of a's runs, as a re-executed shard journals
	// it; determinism makes the payload identical.
	dup := shard(1,
		Record{Experiment: "E1", Version: 8, ErrIdx: 0, CaseIdx: 0, Seed: 11, Detected: true})

	for name, order := range map[string][]*Log{
		"in-order":     {a, b, dup},
		"out-of-order": {dup, b, a},
	} {
		m, err := Merge(order...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Headers) != 1 || m.Headers[0].Total != 5 {
			t.Errorf("%s: merged headers = %+v, want one E1 header with summed total 5", name, m.Headers)
		}
		byKey := m.Lookup("E1")
		if len(byKey) != 4 {
			t.Errorf("%s: merged lookup has %d unique runs, want 4", name, len(byKey))
		}
		if r := byKey[Key{Version: 8, ErrIdx: 0, CaseIdx: 0}]; r == nil || !r.Detected {
			t.Errorf("%s: duplicate run lost its payload: %+v", name, r)
		}
	}

	// Shards from different campaigns must not merge.
	foreign := shard(1, Record{Experiment: "E1", Version: 8, ErrIdx: 9, CaseIdx: 0, Seed: 99})
	foreign.Headers[0].Protocol = json.RawMessage(`{"grid":2,"policy":{"start_ms":500,"period_ms":20},"seed":8}`)
	if _, err := Merge(a, foreign); err == nil || !strings.Contains(err.Error(), "seed: journal 8, this run 7") {
		t.Errorf("merge of shards with disagreeing seeds: err = %v", err)
	}
	period := shard(1)
	period.Headers[0].Protocol = json.RawMessage(`{"grid":2,"policy":{"start_ms":500,"period_ms":200},"seed":7}`)
	if _, err := Merge(a, period); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Errorf("merge of shards with disagreeing injection periods: err = %v", err)
	}
	old := shard(1)
	old.Headers[0].Protocol = nil
	if _, err := Merge(a, old); err == nil || !strings.Contains(err.Error(), "fresh journal") {
		t.Errorf("merge of a shard whose header records no protocol: err = %v", err)
	}
	mixed := shard(1)
	mixed.Headers[0].Runner = "literal"
	if _, err := Merge(a, mixed); err == nil {
		t.Error("merge accepted shards from different engines")
	}
}

// Lines that do not open with their own kind leave Read's prefix path
// and must decode exactly as the kind probe reads them: reordered keys
// as their kind, a duplicate "kind" key as its last value, and a final
// line that is valid JSON but mistyped as an error, not a truncation.
func TestReadOffThePrefixPath(t *testing.T) {
	header := `{"kind":"header","experiment":"E1","total_runs":2}` + "\n"
	log, err := Read(strings.NewReader(header +
		`{"experiment":"E1","kind":"run","err_idx":1,"seed":5}` + "\n" +
		`{"kind":"run","experiment":"E1","err_idx":2,"kind":"probe"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].ErrIdx != 1 || log.Runs[0].Seed != 5 {
		t.Errorf("reordered-keys run line read as %+v", log.Runs)
	}
	if len(log.Probes) != 1 || log.Probes[0].ErrIdx != 2 || log.Probes[0].Kind != KindProbe {
		t.Errorf("duplicate-kind line read as runs %+v, probes %+v", log.Runs, log.Probes)
	}

	_, err = Read(strings.NewReader(header + `{"kind":"run","experiment":"E1","version":"eight"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mistyped final line: err = %v, want a line 2 error", err)
	}
}
