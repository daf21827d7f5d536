package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"easig/internal/core"
	"easig/internal/inject"
	"easig/internal/stats"
	"easig/internal/target"
)

func TestRunSeedDeterministic(t *testing.T) {
	a := runSeed(1, 4)
	b := runSeed(1, 4)
	if a != b {
		t.Fatal("equal coordinates produced different seeds")
	}
	if a < 0 {
		t.Error("seed must be non-negative")
	}
	// The seed depends on the campaign seed and the test case only:
	// every (version, error) run of a case replays the same arrestment,
	// which is what lets the fast-forward engine share one snapshot per
	// case (see runSeed).
	seen := map[int64]bool{a: true}
	for _, s := range []int64{
		runSeed(2, 4),
		runSeed(1, 5),
		runSeed(1, 0),
		runSeed(0, 4),
	} {
		if seen[s] {
			t.Error("distinct coordinates collided")
		}
		seen[s] = true
	}
}

// smallE1 runs a fast E1: one test case, All version only, short
// observation window.
func smallE1(t *testing.T) *E1Result {
	t.Helper()
	r, err := RunE1(Config{Spec: Spec{
		Grid:          1,
		Seed:          3,
		ObservationMs: 6000,
		Versions:      []target.Version{target.VersionAll},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunE1Small(t *testing.T) {
	r := smallE1(t)
	if r.Runs != 112 {
		t.Fatalf("runs = %d, want 112 (one case, one version)", r.Runs)
	}
	total := r.TotalCoverage(0)
	if total.All.Total != 112 {
		t.Fatalf("total experiments = %d", total.All.Total)
	}
	// The counters (i, pulscnt, ms_slot_nbr, mscnt) detect everything
	// even in a short window — the paper's 100% columns.
	for _, sig := range []int{2, 3, 4, 5} {
		cov := r.Coverage[sig][0]
		if cov.All.Detected != cov.All.Total {
			t.Errorf("signal %s: %d/%d detected, want all",
				target.SignalNames()[sig], cov.All.Detected, cov.All.Total)
		}
	}
	// Continuous signals sit strictly between 0 and 100%.
	for _, sig := range []int{0, 1, 6} {
		cov := r.Coverage[sig][0]
		if cov.All.Detected == 0 || cov.All.Detected == cov.All.Total {
			t.Errorf("signal %s: %d/%d detected, want a partial rate",
				target.SignalNames()[sig], cov.All.Detected, cov.All.Total)
		}
	}
	// Latency aggregates exist exactly for rows with detections.
	for sig := 0; sig < target.NumEAs; sig++ {
		if (r.Latency[sig][0].Count() > 0) != (r.Coverage[sig][0].All.Detected > 0) {
			t.Errorf("signal %d: latency/detection bookkeeping disagrees", sig)
		}
	}
	if r.TotalLatency(0).Count() == 0 {
		t.Error("no total latency data")
	}
}

func TestRunE2Small(t *testing.T) {
	r, err := RunE2(Config{Spec: Spec{
		Grid:          1,
		Seed:          3,
		ObservationMs: 6000,
		E2:            inject.E2Spec{RAM: 24, Stack: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs != 32 {
		t.Fatalf("runs = %d, want 32", r.Runs)
	}
	if r.Coverage[target.RegionRAM].All.Total != 24 || r.Coverage[target.RegionStack].All.Total != 8 {
		t.Fatalf("per-region totals wrong: %+v", r.Coverage)
	}
	cov, lat, latFail := r.Total()
	if cov.All.Total != 32 {
		t.Fatalf("total = %d", cov.All.Total)
	}
	if lat.Count() < latFail.Count() {
		t.Error("failure latencies exceed all latencies")
	}
}

// Scaled-down seeded E1 campaign: the counter signals must reproduce
// the shape of the paper's Table 7 — pulscnt, ms_slot_nbr and mscnt are
// detected for every injected bit position (≈100 % P(d)), while the
// slew-limited pressure signals stay strictly partial.
func TestScaledE1CounterCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled campaign in -short mode")
	}
	res, err := RunE1(Config{Spec: Spec{
		Grid:          2,
		ObservationMs: 6000,
		Seed:          7,
		Versions:      []target.Version{target.VersionAll},
	}})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{"pulscnt": true, "ms_slot_nbr": true, "mscnt": true}
	for sig, name := range target.SignalNames() {
		cov := res.Coverage[sig][0].All
		if !cov.Valid() {
			t.Fatalf("signal %s: no runs", name)
		}
		if counters[name] && cov.Detected != cov.Total {
			t.Errorf("counter signal %s: P(d) = %d/%d, want 100%%", name, cov.Detected, cov.Total)
		}
	}
	// The pressure set point is slew-limited: low-order bit errors hide
	// below the rate constraints, so its coverage must be partial.
	sv := res.Coverage[0][0].All
	if sv.Detected == 0 || sv.Detected == sv.Total {
		t.Errorf("SetValue: P(d) = %d/%d, want strictly partial", sv.Detected, sv.Total)
	}
}

func TestTable4Render(t *testing.T) {
	out := Table4()
	for _, want := range []string{"SetValue", "V_REG", "Co/Ra", "ms_slot_nbr", "Di/Se/Li", "CLOCK"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 lacks %q:\n%s", want, out)
		}
	}
}

func TestTable6Render(t *testing.T) {
	out := Table6(25)
	for _, want := range []string{"S1-S16", "S97-S112", "112", "2800", "EA7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 6 lacks %q:\n%s", want, out)
		}
	}
}

func TestTables789Render(t *testing.T) {
	e1 := smallE1(t)
	t7 := Table7(e1)
	for _, want := range []string{"P(d)", "P(d|fail)", "P(d|no fail)", "Total", "mscnt", "All"} {
		if !strings.Contains(t7, want) {
			t.Errorf("Table 7 lacks %q", want)
		}
	}
	t8 := Table8(e1)
	for _, want := range []string{"Min", "Average", "Max", "OutValue"} {
		if !strings.Contains(t8, want) {
			t.Errorf("Table 8 lacks %q", want)
		}
	}
	e2, err := RunE2(Config{Spec: Spec{Grid: 1, Seed: 3, ObservationMs: 4000, E2: inject.E2Spec{RAM: 6, Stack: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	t9 := Table9(e2)
	for _, want := range []string{"RAM", "Stack", "Total", "P(d|fail)"} {
		if !strings.Contains(t9, want) {
			t.Errorf("Table 9 lacks %q", want)
		}
	}
}

func TestComputeHeadline(t *testing.T) {
	e1 := smallE1(t)
	h := ComputeHeadline(e1, nil)
	if h.PdsPercent <= 0 || h.PdsPercent > 100 {
		t.Errorf("Pds = %g", h.PdsPercent)
	}
	if !strings.Contains(h.String(), "74%") {
		t.Error("headline block lacks the paper reference values")
	}
	empty := ComputeHeadline(nil, nil)
	if empty.PdsPercent != 0 {
		t.Error("empty headline not zero")
	}
}

func TestCoverageMergeMatchesTotals(t *testing.T) {
	e1 := smallE1(t)
	var manual stats.Coverage
	for sig := 0; sig < target.NumEAs; sig++ {
		manual.Merge(e1.Coverage[sig][0])
	}
	auto := e1.TotalCoverage(0)
	if manual != auto {
		t.Errorf("manual total %+v != TotalCoverage %+v", manual, auto)
	}
}

func TestFigure2TracesSatisfyOwnParams(t *testing.T) {
	for _, tr := range Figure2Traces(120, 9) {
		m, err := core.NewContinuousSingle(tr.Label, tr.Class, tr.Params)
		if err != nil {
			t.Fatalf("%s: params invalid for %v: %v", tr.Label, tr.Class, err)
		}
		for i, s := range tr.Samples {
			if _, v := m.Test(int64(i), s); v != nil {
				t.Fatalf("%s sample %d: %v", tr.Label, i, v)
			}
		}
	}
}

func TestFigure2Render(t *testing.T) {
	out := Figure2(40, 8, 1)
	if !strings.Contains(out, "(a) random") || !strings.Contains(out, "wrap-around") {
		t.Error("Figure 2 labels missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("Figure 2 has no plotted points")
	}
	lines := strings.Split(Figure2Traces(40, 1)[0].RenderASCII(8), "\n")
	if len(lines) < 9 {
		t.Errorf("plot has %d lines, want label + 8 rows", len(lines))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Grid != 5 || cfg.ObservationMs != 40000 || cfg.Policy.PeriodMs != 20 {
		t.Errorf("defaults = %+v", cfg)
	}
	if len(cfg.Versions) != 8 {
		t.Errorf("default versions = %d", len(cfg.Versions))
	}
	if cfg.E2.RAM != 150 || cfg.E2.Stack != 50 {
		t.Errorf("default E2 = %+v", cfg.E2)
	}
	if cfg.Workers < 1 {
		t.Error("no workers")
	}
	if _, ok := cfg.Recovery.(core.NoRecovery); !ok {
		t.Error("default recovery is not detection-only")
	}
}

func TestVerifyNominal(t *testing.T) {
	// A small grid passes against every version.
	if err := VerifyNominal(Config{Spec: Spec{Grid: 2, Seed: 5, ObservationMs: 20000}}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyNominalCatchesBadParameters(t *testing.T) {
	// An unreachable observation window means the aircraft has not
	// stopped yet: the verification must complain.
	err := VerifyNominal(Config{Spec: Spec{
		Grid: 1, Seed: 5, ObservationMs: 1000,
		Versions: []target.Version{target.VersionAll},
	}})
	if err == nil {
		t.Fatal("truncated nominal run passed verification")
	}
}

func TestFitModel(t *testing.T) {
	e1 := smallE1(t)
	e2, err := RunE2(Config{Spec: Spec{Grid: 1, Seed: 3, ObservationMs: 6000, E2: inject.E2Spec{RAM: 24, Stack: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitModel(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fit.Model.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	// The model must reconstruct the measured Pdetect exactly (Pprop
	// was solved from it) unless clamped at zero.
	if fit.Model.Pprop > 0 {
		if got := fit.Model.Pdetect(); got < fit.MeasuredPdetect-1e-9 || got > fit.MeasuredPdetect+1e-9 {
			t.Errorf("model Pdetect = %g, measured %g", got, fit.MeasuredPdetect)
		}
	}
	// The direct-hit floor cannot exceed the measurement by more than
	// noise allows in this tiny sample, and Pem matches the layout: 14
	// monitored bytes of 1425 injectable.
	if fit.Model.Pem != 14.0/1425 {
		t.Errorf("Pem = %g", fit.Model.Pem)
	}
	if fit.String() == "" {
		t.Error("empty report")
	}
	// E1 without the All version cannot be fitted.
	bad := &E1Result{Versions: []target.Version{target.VersionEA1}}
	if _, err := FitModel(bad, e2); err == nil {
		t.Error("fit without All version accepted")
	}
}

func TestBreakdownRender(t *testing.T) {
	e1 := smallE1(t)
	out := TestBreakdown(e1, target.VersionAll)
	for _, want := range []string{"Violated assertion", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown lacks %q:\n%s", want, out)
		}
	}
	// The counters guarantee rate and transition firings.
	if !strings.Contains(out, "transition") {
		t.Errorf("no transition detections in breakdown:\n%s", out)
	}
	var total int
	for _, n := range e1.ByTest[0] {
		total += n
	}
	if total == 0 {
		t.Fatal("no per-test accounting")
	}
	if TestBreakdown(e1, target.VersionEA2) != "" {
		t.Error("breakdown for a version not in the result should be empty")
	}
}

// Campaigns are deterministic functions of the seed: identical
// configurations produce identical aggregates.
func TestCampaignDeterminism(t *testing.T) {
	run := func() *E1Result {
		r, err := RunE1(Config{
			Spec: Spec{
				Grid: 1, Seed: 77, ObservationMs: 3000,
				Versions: []target.Version{target.VersionAll},
			},
			Exec: Exec{Workers: 4}, // concurrency must not affect aggregation
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for sig := 0; sig < target.NumEAs; sig++ {
		if a.Coverage[sig][0] != b.Coverage[sig][0] {
			t.Errorf("signal %d coverage diverged: %+v vs %+v", sig, a.Coverage[sig][0], b.Coverage[sig][0])
		}
		if a.Latency[sig][0] != b.Latency[sig][0] {
			t.Errorf("signal %d latency diverged", sig)
		}
	}
	for id, n := range a.ByTest[0] {
		if b.ByTest[0][id] != n {
			t.Errorf("breakdown diverged for %v: %d vs %d", id, n, b.ByTest[0][id])
		}
	}
}

func TestExportJSON(t *testing.T) {
	e1 := smallE1(t)
	e2, err := RunE2(Config{Spec: Spec{Grid: 1, Seed: 3, ObservationMs: 4000, E2: inject.E2Spec{RAM: 6, Stack: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, e1, e2); err != nil {
		t.Fatal(err)
	}
	var report ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if report.E1 == nil || report.E2 == nil || report.Headline == nil {
		t.Fatal("report missing sections")
	}
	if report.E1.Runs != 112 || len(report.E1.Cells) != 7 || len(report.E1.Totals) != 1 {
		t.Errorf("E1 export shape: runs=%d cells=%d totals=%d", report.E1.Runs, len(report.E1.Cells), len(report.E1.Totals))
	}
	if len(report.E2.Areas) != 3 {
		t.Errorf("E2 export has %d areas", len(report.E2.Areas))
	}
	// The mscnt cell is a 100% cell: percent set, no interval.
	for _, c := range report.E1.Cells {
		if c.Signal == "mscnt" {
			if c.Coverage.All.Percent == nil || *c.Coverage.All.Percent != 100 {
				t.Errorf("mscnt percent = %v", c.Coverage.All.Percent)
			}
			if c.Coverage.All.HalfWidth != nil {
				t.Error("degenerate 100% cell has an interval")
			}
		}
	}
	// Partial-coverage totals carry an interval.
	tot := report.E1.Totals[0]
	if tot.Coverage.All.HalfWidth == nil {
		t.Error("total lacks a confidence interval")
	}
	if len(report.E1.Breakdown["All"]) == 0 {
		t.Error("no breakdown in export")
	}
}
