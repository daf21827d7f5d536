package optimize

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The optimizer defines its own Format set: a sweep's deliverable is a
// Pareto front and a recommendation table, not the paper's Tables 7-9.
// `fic optimize` emits the rendering through an experiment.Output, the
// destination type campaign reports use.
// Every format renders only deterministic fields — Report.Metrics
// (wall-clock telemetry) is excluded — so a resumed sweep's report
// diffs clean against the uninterrupted run's.

// Format renders a sweep Report in one concrete representation.
type Format interface {
	// Name identifies the format ("text", "json", "csv") — the value of
	// `fic optimize -format`.
	Name() string
	// Render writes the formatted report to w.
	Render(w io.Writer, r *Report) error
}

// ParseFormat resolves a format name to its Format.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "", "text":
		return TextFormat{}, nil
	case "json":
		return JSONFormat{}, nil
	case "csv":
		return CSVFormat{}, nil
	default:
		return nil, fmt.Errorf("optimize: unknown report format %q (want text, json or csv)", name)
	}
}

// TextFormat renders the human-readable sweep summary: the sweep
// parameters, the cost model, the Pareto front (cheapest operating
// point first) and the per-budget recommendations.
type TextFormat struct{}

// Name returns "text".
func (TextFormat) Name() string { return "text" }

// Render writes the text report.
func (TextFormat) Render(w io.Writer, r *Report) error {
	if _, err := fmt.Fprintf(w, "Configuration lattice sweep %s: %d configurations scored over %d probes (%d errors x %d cases, %d ms window, seed %d)\n",
		r.Experiment, r.LatticeSize, r.Probes, r.Errors, r.Grid*r.Grid, r.ObservationMs, r.Seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "Cost model: baseline %.0f ns/tick, All/All %.0f ns/tick, additivity error %.1f%% (%d ticks x %d reps)\n",
		r.Cost.BaselineNsPerTick, r.Cost.AllNsPerTick, r.Cost.AdditivityErrPct(), r.Cost.Ticks, r.Cost.Reps)
	fmt.Fprintf(w, "\nPareto front (%d of %d configurations):\n", len(r.Front), r.LatticeSize)
	fmt.Fprintf(w, "%-24s %10s %12s %12s %9s %11s %12s\n",
		"config", "detect%", "latency ms", "cpu ns/tick", "ram B", "averted%", "equivalents")
	for _, m := range r.Front {
		s := m.Score
		lat := "-"
		if s.Detected > 0 {
			lat = fmt.Sprintf("%.1f", s.MeanLatencyMs)
		}
		fmt.Fprintf(w, "%-24s %10.2f %12s %12.1f %9d %11.2f %12d\n",
			s.Name, s.DetectionPct, lat, s.CPUNsPerTick, s.RAMBytes, s.AvertedFailPct, len(m.Equivalent))
	}
	fmt.Fprintf(w, "\nRecommended configuration per failure-cost budget:\n")
	for _, rec := range r.Recommendations {
		fmt.Fprintf(w, "  failure cost %-12v -> %-24s (expected cost %.0f ns over the window)\n",
			rec.FailureCost, rec.Config, rec.UtilityNs)
	}
	return nil
}

// JSONFormat renders the full Report — every scored configuration, the
// front and the recommendations — as one indented JSON document.
type JSONFormat struct{}

// Name returns "json".
func (JSONFormat) Name() string { return "json" }

// Render writes the JSON report.
func (JSONFormat) Render(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVFormat renders one row per scored configuration — the full
// lattice, Pareto membership included — for spreadsheet analysis.
type CSVFormat struct{}

// Name returns "csv".
func (CSVFormat) Name() string { return "csv" }

// Render writes the CSV report.
func (CSVFormat) Render(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"config", "mask", "nodes", "recovery",
		"probes", "detected", "detection_pct", "mean_latency_ms",
		"failing", "averted_failing", "averted_fail_pct",
		"cpu_ns_per_tick", "ram_bytes", "stack_bytes", "pareto",
	}); err != nil {
		return err
	}
	for i := range r.Scores {
		s := &r.Scores[i]
		if err := cw.Write([]string{
			s.Name,
			strconv.Itoa(int(s.Config.Mask)),
			s.Config.Nodes.String(),
			strconv.FormatBool(s.Config.Recovery),
			strconv.Itoa(s.Probes),
			strconv.Itoa(s.Detected),
			strconv.FormatFloat(s.DetectionPct, 'f', 4, 64),
			strconv.FormatFloat(s.MeanLatencyMs, 'f', 4, 64),
			strconv.Itoa(s.Failing),
			strconv.Itoa(s.AvertedFailing),
			strconv.FormatFloat(s.AvertedFailPct, 'f', 4, 64),
			strconv.FormatFloat(s.CPUNsPerTick, 'f', 4, 64),
			strconv.Itoa(s.RAMBytes),
			strconv.Itoa(s.StackBytes),
			strconv.FormatBool(s.Pareto),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
