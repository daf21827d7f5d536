package easig

import "easig/internal/journal"

// Campaign observability: re-exports of the internal/journal subsystem
// that makes the paper's 27 400-run protocol (§3.4: E1's 22 400 runs
// plus E2's 5000) journaled, resumable and observable. A campaign run
// with CampaignConfig.Journal set appends one JSONL record per
// completed run; an interrupted campaign resumed from that journal via
// CampaignConfig.Resume reproduces the uninterrupted campaign's
// Tables 7-9 byte for byte. See ARCHITECTURE.md for the determinism
// contract that makes this sound.

// JournalWriter appends campaign run records to a JSONL journal file
// through a single writer goroutine; set it as CampaignConfig.Journal.
type JournalWriter = journal.Writer

// JournalLog is a loaded campaign journal; set it as
// CampaignConfig.Resume to replay its outcomes instead of re-executing
// the journaled runs.
type JournalLog = journal.Log

// ProgressEvent is one campaign progress sample (throughput,
// completed/total, ETA), delivered to CampaignConfig.Progress after
// every completed or replayed run.
type ProgressEvent = journal.ProgressEvent

// CampaignMetrics summarizes a finished campaign's execution: live and
// replayed run counts, wall time, throughput and per-worker
// utilization. Campaign results carry one in their Metrics field.
type CampaignMetrics = journal.Metrics
