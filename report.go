package easig

import "easig/internal/experiment"

// The runner/reporter split: re-exports of the internal/experiment
// reporting subsystem. Campaigns produce CampaignResults; a
// ReportFormat paired with a ReportOutput renders them — fic's stdout
// tables and ficd's HTTP result bodies both go through this one path,
// so they are byte-identical by construction.

// CampaignResults bundles the outputs of a campaign (one or both
// experiments) with the Spec that produced them.
type CampaignResults = experiment.Results

// ReportFormat renders CampaignResults in one concrete representation:
// TextReport (the paper's tables), JSONReport (the stable machine
// schema) or JournalReport (JSONL journal lines).
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
	// JournalReport renders the campaign journal as JSONL lines.
	JournalReport = experiment.JournalFormat
	// StdWriter emits a report to an io.Writer.
	StdWriter = experiment.WriterOutput
	// FileReport emits a report to a file created at render time.
	FileReport = experiment.FileOutput
)

// ParseReportFormat resolves a format name ("text", "json",
// "journal"/"jsonl") — the value of fic's -format flag and ficd's
// ?format query parameter — to its ReportFormat.
func ParseReportFormat(name string) (ReportFormat, error) { return experiment.ParseFormat(name) }
