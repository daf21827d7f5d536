package easig

import "easig/internal/experiment"

// The runner/reporter split: re-exports of the internal/experiment
// reporting subsystem. Campaigns produce CampaignResults; a
// ReportFormat paired with a ReportOutput renders them. A campaign run
// in one process and one merged from shard journals (fic merge) both
// print through this one path, so their tables are byte-identical by
// construction.

// CampaignResults bundles the outputs of a campaign (one or both
// experiments) with the Spec that produced them.
type CampaignResults = experiment.Results

// ReportFormat renders CampaignResults in one concrete representation:
// TextReport (the paper's tables) or JSONReport (the stable machine
// schema).
type ReportFormat = experiment.Format

// ReportOutput is a sink for one rendered report: StdWriter wraps any
// io.Writer, FileReport creates a file.
type ReportOutput = experiment.Output

// CampaignReporter pairs a format with an output; Report renders
// results through them.
type CampaignReporter = experiment.Reporter

// Report format and output implementations.
type (
	// TextReport renders the paper's fixed-width tables — the same
	// bytes fic prints.
	TextReport = experiment.TextFormat
	// JSONReport renders the machine-readable export schema.
	JSONReport = experiment.JSONFormat
	// StdWriter emits a report to an io.Writer.
	StdWriter = experiment.WriterOutput
	// FileReport emits a report to a file created at render time.
	FileReport = experiment.FileOutput
)

// ParseReportFormat resolves a format name ("text" or "json") — the
// value of fic's -format flag — to its ReportFormat.
func ParseReportFormat(name string) (ReportFormat, error) { return experiment.ParseFormat(name) }
