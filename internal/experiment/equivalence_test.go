package experiment

import (
	"path/filepath"
	"reflect"
	"testing"

	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/target"
)

// equivalenceConfig scales the campaign so the snapshot engine's
// quiet-window exit is actually exercised (the nominal stop of the
// grid-1 case is near 10.5 s, so a 16 s window leaves room for the
// stop, the quiet window and a post-quiet tail) while the literal
// reference stays affordable in CI.
func equivalenceConfig(seed int64, journalPath string, mode inject.Mode) (Config, *journal.Writer, error) {
	var w *journal.Writer
	var err error
	if journalPath != "" {
		w, err = journal.Create(journalPath)
		if err != nil {
			return Config{}, nil, err
		}
	}
	return Config{
		Spec: Spec{
			Grid:          1,
			ObservationMs: 16000,
			Seed:          seed,
			E2:            inject.E2Spec{RAM: 40, Stack: 16},
		},
		Exec: Exec{
			Journal: w,
			Mode:    mode,
		},
	}, w, nil
}

// loadRecords returns the journal's per-run records keyed by
// coordinates.
func loadRecords(t *testing.T, path, exp string) map[journal.Key]*journal.Record {
	t.Helper()
	log, err := journal.Load(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return log.Lookup(exp)
}

// diffRecords compares two journal record sets field by field.
func diffRecords(t *testing.T, mode string, got, want map[journal.Key]*journal.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: journal has %d records, literal reference %d", mode, len(got), len(want))
	}
	mismatches := 0
	for k, a := range got {
		b, ok := want[k]
		if !ok {
			t.Fatalf("%s: run %+v missing from literal journal", mode, k)
		}
		if !reflect.DeepEqual(a, b) {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s run %+v:\n     got %+v\n literal %+v", mode, k, a, b)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%s: %d of %d run outcomes differ", mode, mismatches, len(got))
	}
}

// engineMatrix runs one campaign under every engine mode and returns
// the result, rendered tables and journal records per mode. The
// literal mode is the ground truth (it simulates every run from time
// zero exactly as the paper's FIC3 hardware observed the target); the
// snapshot and memo runners must be observationally identical to it.
type matrixRow struct {
	mode    inject.Mode
	tables  []string
	records map[journal.Key]*journal.Record
}

func runMatrix(t *testing.T, seed int64, exp string,
	run func(Config) (interface{ renderTables() []string }, error)) map[inject.Mode]matrixRow {
	t.Helper()
	dir := t.TempDir()
	out := make(map[inject.Mode]matrixRow)
	for _, mode := range []inject.Mode{inject.ModeLiteral, inject.ModeSnapshot, inject.ModeMemo} {
		path := filepath.Join(dir, mode.String()+".jsonl")
		cfg, w, err := equivalenceConfig(seed, path, mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(cfg)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s campaign: %v", mode, err)
		}
		out[mode] = matrixRow{mode: mode, tables: res.renderTables(), records: loadRecords(t, path, exp)}
	}
	return out
}

// diffMatrix checks each non-literal row against the literal ground
// truth: byte-identical rendered tables and field-identical journal
// records.
func diffMatrix(t *testing.T, rows map[inject.Mode]matrixRow, tableNames []string) {
	t.Helper()
	ref := rows[inject.ModeLiteral]
	for _, mode := range []inject.Mode{inject.ModeSnapshot, inject.ModeMemo} {
		row := rows[mode]
		for i, name := range tableNames {
			if row.tables[i] != ref.tables[i] {
				t.Errorf("%s differs under %s:\n%s engine:\n%s\nliteral:\n%s",
					name, mode, mode, row.tables[i], ref.tables[i])
			}
		}
		diffRecords(t, mode.String(), row.records, ref.records)
	}
}

type e1Tables struct{ r *E1Result }

func (e e1Tables) renderTables() []string { return []string{Table7(e.r), Table8(e.r)} }

type e2Tables struct{ r *E2Result }

func (e e2Tables) renderTables() []string { return []string{Table9(e.r)} }

// TestE1EngineEquivalence is the three-way acceptance matrix for the
// Runner redesign: an E1 campaign served by the snapshot engine and by
// the memo/prune runner renders byte-identical Tables 7 and 8 and
// journals identical per-run outcomes versus the same campaign
// simulated literally from time zero with the same seed.
func TestE1EngineEquivalence(t *testing.T) {
	var last *E1Result
	rows := runMatrix(t, 11, ExperimentE1, func(cfg Config) (interface{ renderTables() []string }, error) {
		r, err := RunE1(cfg)
		last = r
		return e1Tables{r}, err
	})
	diffMatrix(t, rows, []string{"Table 7", "Table 8"})

	// Sanity: the campaign exercised detections, misses and failures,
	// so the equality above is not vacuous.
	vi := last.versionIndex(target.VersionAll)
	total := last.TotalCoverage(vi)
	if total.All.Detected == 0 || total.All.Detected == total.All.Total || total.Fail.Total == 0 {
		t.Fatalf("degenerate campaign: %+v", total)
	}
}

// TestE2EngineEquivalence is the same theorem for the random RAM/stack
// error set and Table 9. The E2 set samples with replacement, so this
// is also the path that exercises real memo hits (duplicate (addr,bit)
// draws) against the literal reference.
func TestE2EngineEquivalence(t *testing.T) {
	var last *E2Result
	rows := runMatrix(t, 23, ExperimentE2, func(cfg Config) (interface{ renderTables() []string }, error) {
		r, err := RunE2(cfg)
		last = r
		return e2Tables{r}, err
	})
	diffMatrix(t, rows, []string{"Table 9"})

	cov, _, _ := last.Total()
	if cov.All.Detected == 0 || cov.All.Detected == cov.All.Total {
		t.Fatalf("degenerate campaign: %+v", cov)
	}
}

// TestExhaustiveMemoSmoke runs the full 11 400-position exhaustive grid
// under the memo runner at a short window and checks that the liveness
// pass prunes a substantial share of the fault space — the property
// that makes the exhaustive protocol affordable at all — and that the
// campaign metrics account every error to exactly one serving path.
func TestExhaustiveMemoSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive grid is slow")
	}
	r, err := RunE2(Config{
		Spec: Spec{Grid: 1, Seed: 7, ObservationMs: 8000, Exhaustive: true},
		Exec: Exec{Mode: inject.ModeMemo},
	})
	if err != nil {
		t.Fatal(err)
	}
	// E2 campaigns run the fully instrumented build only (the paper's
	// Table 9 protocol): one run per fault-space position.
	wantErrors := len(inject.BuildExhaustive())
	if r.Runs != wantErrors {
		t.Fatalf("runs = %d, want %d", r.Runs, wantErrors)
	}
	m := r.Metrics
	if m.Errors != wantErrors {
		t.Fatalf("metrics.Errors = %d, want %d", m.Errors, wantErrors)
	}
	if got := m.Simulated + m.Pruned + m.MemoHits; got != m.Errors {
		t.Fatalf("serving paths do not partition the error set: %d+%d+%d != %d",
			m.Simulated, m.Pruned, m.MemoHits, m.Errors)
	}
	if m.PruneRate < 0.5 {
		t.Errorf("prune rate %.3f; the def/use pass should prove most of the 1425-byte space dead", m.PruneRate)
	}
	if m.MemoHits != 0 {
		t.Errorf("memo hits %d on an exhaustive grid; every (addr,bit) position is distinct", m.MemoHits)
	}
	if m.Runner != inject.ModeMemo.String() {
		t.Errorf("metrics runner = %q, want %q", m.Runner, inject.ModeMemo)
	}
	cov, _, _ := r.Total()
	if cov.All.Detected == 0 || cov.All.Detected == cov.All.Total {
		t.Fatalf("degenerate exhaustive campaign: %+v", cov)
	}
	t.Logf("exhaustive Pdetect %.1f%% (pruned %.1f%%, simulated %d of %d)",
		cov.All.Percent(), 100*m.PruneRate, m.Simulated, m.Errors)
}
