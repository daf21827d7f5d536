package experiment

import (
	"fmt"
	"io"
	"os"

	"easig/internal/inject"
	"easig/internal/target"
)

// The runner/reporter split: campaigns produce Results, and a Reporter
// — a Format (how results render) paired with an Output (where the
// rendering goes) — turns them into the paper's tables. A campaign, a
// resumed campaign and a merge of shard journals (fic merge) all render
// through this one path, so the text a CI job diffs and the tables an
// operator reads in a terminal are byte-identical by construction.

// Results bundles the outputs of a campaign (one or both experiments)
// with the Spec that produced them — everything a Format needs to
// render the paper's tables, and nothing about how the runs were
// executed or sharded.
type Results struct {
	// Spec is the campaign protocol the results were measured under.
	Spec Spec `json:"spec"`
	// E1 holds the Tables 7-8 aggregates when E1 ran.
	E1 *E1Result `json:"-"`
	// E2 holds the Table 9 aggregates when E2 (or the exhaustive
	// census) ran.
	E2 *E2Result `json:"-"`
}

// Format renders Results in one concrete representation.
type Format interface {
	// Name identifies the format ("text" or "json") — the value of
	// fic's -format flag.
	Name() string
	// Render writes the formatted results to w.
	Render(w io.Writer, r *Results) error
}

// Output is a sink for one rendered report.
type Output interface {
	// Emit runs render against the output's destination.
	Emit(render func(io.Writer) error) error
}

// Reporter pairs a Format with an Output.
type Reporter struct {
	Format Format
	Output Output
}

// Report renders the results through the reporter's format into its
// output.
func (rep Reporter) Report(r *Results) error {
	if rep.Format == nil || rep.Output == nil {
		return fmt.Errorf("experiment: reporter needs both a format and an output")
	}
	return rep.Output.Emit(func(w io.Writer) error {
		return rep.Format.Render(w, r)
	})
}

// TextFormat renders the paper's fixed-width tables — the same bytes
// fic has always printed: Table 6 and Tables 7-8 with the detection
// breakdown for E1, Table 9 (plus the measured-Pdetect and runner lines
// of an exhaustive census) for E2, then the headline block and, when
// both experiments ran, the analytical model fit. The byte-for-byte
// stability of this rendering is what lets the CI shard-smoke job diff
// a sharded campaign's merged tables against a single-process run.
type TextFormat struct{}

// Name returns "text".
func (TextFormat) Name() string { return "text" }

// Render writes the text tables.
func (TextFormat) Render(w io.Writer, r *Results) error {
	cfg := Config{Spec: r.Spec}.withDefaults()
	cases := cfg.Grid * cfg.Grid
	if r.E1 != nil {
		if _, err := fmt.Fprintln(w, Table6(cases)); err != nil {
			return err
		}
		fmt.Fprintln(w, Table7(r.E1))
		fmt.Fprintln(w, Table8(r.E1))
		fmt.Fprintln(w, TestBreakdown(r.E1, target.VersionAll))
	}
	if r.E2 != nil {
		if _, err := fmt.Fprintln(w, Table9(r.E2)); err != nil {
			return err
		}
		if r.Spec.Exhaustive {
			cov, _, _ := r.E2.Total()
			fmt.Fprintf(w, "Measured Pdetect over the full fault space (%d positions x %d cases): %.2f%%\n",
				inject.ExhaustiveSize, cases, cov.All.Percent())
		}
	}
	if r.E1 != nil || r.E2 != nil {
		if _, err := fmt.Fprintln(w, ComputeHeadline(r.E1, r.E2)); err != nil {
			return err
		}
	}
	if r.E1 != nil && r.E2 != nil {
		if fit, err := FitModel(r.E1, r.E2); err == nil {
			if _, err := fmt.Fprintln(w, fit); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSONFormat renders the machine-readable export (export.go's stable
// schema): cells, totals, breakdowns, headline and model fit as one
// indented JSON document.
type JSONFormat struct{}

// Name returns "json".
func (JSONFormat) Name() string { return "json" }

// Render writes the JSON export.
func (JSONFormat) Render(w io.Writer, r *Results) error {
	return WriteJSON(w, r.E1, r.E2)
}

// ParseFormat resolves a format name ("text" or "json") to its Format.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "", "text":
		return TextFormat{}, nil
	case "json":
		return JSONFormat{}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown report format %q (want text or json)", name)
	}
}

// WriterOutput emits to an io.Writer — stdout or a buffer.
type WriterOutput struct{ W io.Writer }

// Emit renders into the writer.
func (o WriterOutput) Emit(render func(io.Writer) error) error {
	return render(o.W)
}

// FileOutput emits to a file, created (truncating) at Emit time.
type FileOutput struct{ Path string }

// Emit creates the file and renders into it.
func (o FileOutput) Emit(render func(io.Writer) error) error {
	f, err := os.Create(o.Path)
	if err != nil {
		return fmt.Errorf("experiment: creating report %s: %w", o.Path, err)
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
