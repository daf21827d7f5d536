package optimize

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easig/internal/inject"
	"easig/internal/journal"
)

// testSpec is the scaled sweep the tests run: a 2x2 grid against a
// 10-error E2 sample over a 4 s window — 40 probes.
func testSpec() Spec {
	return Spec{
		Errors:        ErrorsE2,
		Grid:          2,
		ObservationMs: 4000,
		Seed:          7,
		E2:            inject.E2Spec{RAM: 6, Stack: 4},
	}
}

// renderAll renders a report in every format and returns the
// concatenated bytes — the byte-identity oracle.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range []Format{TextFormat{}, JSONFormat{}, CSVFormat{}} {
		if err := f.Render(&buf, rep); err != nil {
			t.Fatalf("rendering %s: %v", f.Name(), err)
		}
	}
	return buf.Bytes()
}

// The tentpole's resume contract: kill a journaled sweep mid-file (a
// byte-level truncation, cutting the final line in half the way a real
// kill does), resume from the truncated journal, and the resumed
// report — text, JSON and CSV — must be byte-identical to the
// uninterrupted run's. This requires both resume mechanisms to work:
// probe replay (deterministic by the seed contract) and cost replay
// (the journaled calibration, the sweep's one wall-clock input).
func TestSweepResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.jsonl")
	spec := testSpec()
	cost := tinyCost()

	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(spec, Options{Journal: w, Cost: &cost, Workers: 4})
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Probes != 40 || rep1.Resumed != 0 {
		t.Fatalf("full sweep scored %d probes (%d resumed), want 40 live", rep1.Probes, rep1.Resumed)
	}
	want := renderAll(t, rep1)

	// Kill: cut the line that holds the two-thirds byte in its middle.
	// Probe lines land in completion order and differ in length, so the
	// two-thirds byte itself is sometimes a line end.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mark := len(data) * 2 / 3
	start := bytes.LastIndexByte(data[:mark], '\n') + 1
	end := start + bytes.IndexByte(data[start:], '\n')
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, data[:(start+end)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Fatal("truncated journal not flagged")
	}
	if len(log.Probes) == 0 || len(log.Probes) >= 40 {
		t.Fatalf("truncated journal holds %d probes, want some but not all", len(log.Probes))
	}
	if _, ok := log.Cost(spec.Experiment()); !ok {
		t.Fatal("truncated journal lost the cost record; the test needs the cut after it")
	}

	// Resume WITHOUT the injected cost model: the journaled record must
	// carry it.
	w2, err := journal.Open(trunc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(spec, Options{Journal: w2, Resume: log, Workers: 2})
	if cerr := w2.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed == 0 || rep2.Resumed != len(log.Probes) {
		t.Fatalf("resumed %d probes, journal held %d", rep2.Resumed, len(log.Probes))
	}
	if rep2.Probes != rep1.Probes {
		t.Fatalf("resumed sweep scored %d probes, full sweep %d", rep2.Probes, rep1.Probes)
	}
	if rep2.Cost != cost {
		t.Errorf("resumed sweep cost model %+v deviates from the journaled %+v", rep2.Cost, cost)
	}
	if got := renderAll(t, rep2); !bytes.Equal(got, want) {
		t.Errorf("resumed report deviates from the uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The twice-written journal (resume appends the re-executed probes)
	// must replay to the same report a third time, fully from file.
	log2, err := journal.Load(trunc)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := Run(spec, Options{Resume: log2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Resumed != rep3.Probes {
		t.Fatalf("third pass executed %d probes live, want a full replay", rep3.Probes-rep3.Resumed)
	}
	if got := renderAll(t, rep3); !bytes.Equal(got, want) {
		t.Error("full-replay report deviates from the uninterrupted run")
	}
}

func TestSweepRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	spec := testSpec()
	cost := tinyCost()
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Journal: w, Cost: &cost, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	other := spec
	other.Seed = 8
	if _, err := Run(other, Options{Resume: log, Cost: &cost}); err == nil {
		t.Error("journal from seed 7 resumed into a seed-8 sweep")
	} else if !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed-mismatch error does not name the seed: %v", err)
	}

	other = spec
	other.ObservationMs = 3000
	if _, err := Run(other, Options{Resume: log, Cost: &cost}); err == nil {
		t.Error("journal from a 4000 ms window resumed into a 3000 ms sweep")
	} else if !strings.Contains(err.Error(), "observation_ms") {
		t.Errorf("window-mismatch error does not name the window: %v", err)
	}

	if _, err := Run(spec, Options{Resume: log, Mode: inject.ModeSnapshot, Cost: &cost}); err == nil {
		t.Error("memo-mode journal resumed into a snapshot-mode sweep")
	}
}

// The sweep's probe bookkeeping must balance: every live probe is
// served exactly once, and each is simulated, pruned or a memo hit.
func TestSweepProbeAccounting(t *testing.T) {
	cost := tinyCost()
	rep, err := Run(testSpec(), Options{Cost: &cost, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m.Errors != rep.Probes {
		t.Errorf("runner stats served %d errors, sweep scored %d probes", m.Errors, rep.Probes)
	}
	if m.Simulated+m.Pruned+m.MemoHits != m.Errors {
		t.Errorf("probe accounting does not balance: %d simulated + %d pruned + %d memo != %d",
			m.Simulated, m.Pruned, m.MemoHits, m.Errors)
	}
	if m.Runner != "memo" {
		t.Errorf("auto mode resolved to %q, want memo", m.Runner)
	}
	if len(rep.Scores) != rep.LatticeSize || rep.LatticeSize != 768 {
		t.Errorf("scored %d of %d lattice points, want 768", len(rep.Scores), rep.LatticeSize)
	}
	if len(rep.Front) == 0 {
		t.Error("empty Pareto front")
	}
	// The empty configuration is always scored and never detects.
	if s := rep.Scores[0]; s.Config.Mask != 0 || s.Detected != 0 || s.CPUNsPerTick != 0 {
		t.Errorf("empty-mask score = %+v, want zero detections at zero cost", s)
	}
}

// Probe modes are interchangeable on the scored matrix: a literal-mode
// sweep (full-window, fresh system per probe) must produce the same
// report bytes as the memo-mode sweep, given the same cost model.
func TestSweepModeEquivalence(t *testing.T) {
	spec := testSpec()
	spec.E2 = inject.E2Spec{RAM: 4, Stack: 2}
	cost := tinyCost()
	memo, err := Run(spec, Options{Cost: &cost, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := Run(spec, Options{Cost: &cost, Mode: inject.ModeLiteral, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, memo), renderAll(t, lit)) {
		t.Error("memo-mode sweep report deviates from the literal-mode reference")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Run(Spec{Errors: "e3"}, Options{}); err == nil {
		t.Error("unknown error set accepted")
	}
	if _, err := Run(Spec{ObservationMs: 100}, Options{}); err == nil {
		t.Error("observation window shorter than the injection start accepted")
	}
}
