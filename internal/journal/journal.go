// Package journal implements the campaign run journal: the per-run
// result database that makes the paper's 27 400-run protocol (§3.4)
// observable and resumable.
//
// A journal is an append-only JSONL file. The first line of each
// campaign is a header naming the experiment, the engine and the whole
// protocol; every completed run then appends one Record carrying the run
// coordinates (version, error index, test-case index), the derived
// per-run seed and the readouts the campaign aggregators consume
// (detected / failed / latency / per-assertion breakdown). Records are
// written by a single writer goroutine that batches queued lines into
// one write call per wakeup; batches end on line boundaries, so a
// killed campaign leaves at most one truncated trailing line — which
// Load tolerates.
//
// Replay is one pass. Read decodes each line straight off the scanner
// and without copying it, into the type its leading "kind" key names. A
// run line of exactly the shape the writer emits is read by a
// shape-exact decoder without reflection; every other line is
// unmarshalled by encoding/json. A campaign then streams the loaded
// records into its aggregators (experiment.partition) without an
// intermediate outcome list, before any live run is dispatched.
//
// Resume soundness rests on the determinism contract documented in
// ARCHITECTURE.md: every per-run seed is a pure function of the
// campaign seed and the run coordinates, so a journaled outcome can be
// replayed into the aggregators instead of re-executing the run, and an
// interrupted-then-resumed campaign reproduces the uninterrupted
// campaign's Tables 7-9 byte for byte. The header binds the whole
// protocol and each Record stores its seed, so a resume against a
// different campaign configuration is refused instead of silently
// polluting the tables.
//
// A campaign can also run as shards, each journaling its test cases to
// its own file (fic -cases); Merge folds the shard journals back into
// one logical journal whose replay renders the single-process tables
// byte for byte.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Line kinds distinguishing the journal's JSONL record types.
const (
	// KindHeader marks a campaign header line.
	KindHeader = "header"
	// KindRun marks a completed-run record line.
	KindRun = "run"
	// KindProbe marks one optimizer probe record: the per-node,
	// per-assertion first-violation profile of one (error, test case)
	// that `fic optimize` scores every configuration of the lattice
	// from (see internal/optimize and OPTIMIZER.md).
	KindProbe = "probe"
	// KindCost marks the optimizer's journaled CPU cost calibration.
	// Calibration is a wall-clock measurement and therefore NOT a
	// deterministic function of the campaign seed; journaling it and
	// replaying it on resume is what makes `fic optimize -resume`
	// reproduce the Pareto front byte-identically.
	KindCost = "cost"
)

// Header is the campaign identification line written when a campaign
// starts (and again when it is resumed). Resume and shard merges
// compare it with Match before any record is replayed.
type Header struct {
	// Kind is KindHeader.
	Kind string `json:"kind"`
	// Experiment names the campaign ("E1" or "E2", the paper's §3.4
	// error sets).
	Experiment string `json:"experiment"`
	// Total is the campaign's total run count at this configuration.
	Total int `json:"total_runs"`
	// Runner names the execution engine that produced the records
	// ("literal", "snapshot" or "memo"), so e.g. a memo-mode journal
	// cannot silently extend a literal-mode table.
	Runner string `json:"runner,omitempty"`
	// Protocol is the canonical JSON of everything that decides the
	// records' outcomes: a campaign's experiment.Spec with defaults
	// applied, the shard selector cleared and the recovery policy
	// added, or a sweep's optimize.Spec. The journal treats it as
	// opaque bytes.
	Protocol json.RawMessage `json:"protocol,omitempty"`
}

// Match returns why records under h, a journal's header, cannot stand
// for records under want: h names no protocol (an older build wrote
// it), another protocol, or another engine. It is the one identity
// check of resume and shard merges, so no journal
// puts one protocol's outcomes into another protocol's tables. The
// engines are equivalence-tested, but a mixed-provenance table could
// no longer be attributed to either, so the engine must match too.
func (h Header) Match(want Header) error {
	switch {
	case len(h.Protocol) == 0:
		return fmt.Errorf("%s journal header records no protocol (an older build wrote it) — start a fresh journal", h.Experiment)
	case !bytes.Equal(h.Protocol, want.Protocol):
		return fmt.Errorf("%s journal was recorded under another protocol (%s)", h.Experiment, protocolDiff(h.Protocol, want.Protocol))
	case h.Runner != want.Runner:
		return fmt.Errorf("%s journal was recorded by the %s engine, not %s", h.Experiment, h.Runner, want.Runner)
	}
	return nil
}

// protocolDiff names the top-level protocol fields on which the
// journal's protocol got and the live protocol want disagree, or quotes
// both protocols when they are not JSON objects or no field differs
// (the same fields, spaced or ordered differently).
func protocolDiff(got, want json.RawMessage) string {
	raw := fmt.Sprintf("journal %s, this run %s", got, want)
	var g, w map[string]json.RawMessage
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return raw
	}
	keys := make(map[string]bool, len(g)+len(w))
	for k := range g {
		keys[k] = true
	}
	for k := range w {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if !bytes.Equal(g[k], w[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: journal %s, this run %s", k, orUnset(g[k]), orUnset(w[k])))
		}
	}
	if len(diffs) == 0 {
		return raw
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// orUnset renders an omitted protocol field.
func orUnset(v json.RawMessage) string {
	if v == nil {
		return "unset"
	}
	return string(v)
}

// Record is one completed run: its coordinates in the campaign grid,
// the derived seed, and the readouts the Table 7-9 aggregators consume.
type Record struct {
	// Kind is KindRun.
	Kind string `json:"kind"`
	// Experiment names the campaign the run belongs to.
	Experiment string `json:"experiment"`
	// Version is the software version coordinate (target.Version).
	Version int `json:"version"`
	// ErrIdx is the error's index in the campaign error set.
	ErrIdx int `json:"err_idx"`
	// ErrID is the error's campaign identifier (e.g. "S17", "R42").
	ErrID string `json:"err_id,omitempty"`
	// CaseIdx is the test case's index in the campaign grid.
	CaseIdx int `json:"case_idx"`
	// Seed is the derived per-run seed; on resume it must equal the
	// seed re-derived from the live configuration.
	Seed int64 `json:"seed"`
	// Detected reports at least one assertion detection in the run.
	Detected bool `json:"detected,omitempty"`
	// Failed reports a violated arrestment constraint (§3.2).
	Failed bool `json:"failed,omitempty"`
	// LatencyMs is the detection latency when Detected.
	LatencyMs int64 `json:"latency_ms,omitempty"`
	// ByTest counts violations per assertion kind (core.TestID keys,
	// the Table 2/3 constraint that fired).
	ByTest map[int]int `json:"by_test,omitempty"`
}

// Probe is one optimizer probe record: for one (error, test case) the
// first-violation time of every executable assertion on each node,
// under the all-assertions dual-sink probe run (internal/inject.Probe).
// Unlike a Record — which stores one version build's scalar outcome —
// a Probe stores the full 2×7 first-detection matrix, from which
// internal/optimize derives the outcome of all 2^7 assertion subsets ×
// 3 placements exactly (see OPTIMIZER.md's subset-derivation argument).
type Probe struct {
	// Kind is KindProbe.
	Kind string `json:"kind"`
	// Experiment names the sweep ("OPT-e1", "OPT-e2", "OPT-exhaustive").
	Experiment string `json:"experiment"`
	// ErrIdx is the error's index in the sweep error set.
	ErrIdx int `json:"err_idx"`
	// ErrID is the error's campaign identifier (e.g. "S17", "R0x0123.4").
	ErrID string `json:"err_id,omitempty"`
	// CaseIdx is the test case's index in the sweep grid.
	CaseIdx int `json:"case_idx"`
	// Seed is the derived per-run seed; on resume it must equal the seed
	// re-derived from the live configuration.
	Seed int64 `json:"seed"`
	// Failed reports a violated arrestment constraint during the probe.
	Failed bool `json:"failed,omitempty"`
	// FailTickMs is the tick at which the failure latched (valid when
	// Failed), on the same clock as the first-violation times.
	FailTickMs int64 `json:"fail_tick_ms,omitempty"`
	// Master and Slave hold each assertion's first-violation time on
	// that node, -1 when the assertion never fired (index k = EA k+1).
	Master []int64 `json:"master_first_ms"`
	Slave  []int64 `json:"slave_first_ms"`
}

// ProbeKey locates one probe inside a sweep: probes carry no version
// coordinate (one probe serves every configuration).
type ProbeKey struct {
	ErrIdx, CaseIdx int
}

// Key returns the probe's sweep coordinates.
func (p Probe) Key() ProbeKey { return ProbeKey{ErrIdx: p.ErrIdx, CaseIdx: p.CaseIdx} }

// Cost is the optimizer's journaled CPU cost calibration: the per-tick
// baseline and the marginal per-assertion, per-node overheads the cost
// model sums (OPTIMIZER.md "The cost model"). It is measured wall-clock
// once per sweep and replayed verbatim on resume.
type Cost struct {
	// Kind is KindCost.
	Kind string `json:"kind"`
	// Experiment names the sweep the calibration belongs to.
	Experiment string `json:"experiment"`
	// BaselineNs is the per-tick cost of the assertion-free build
	// (master None, slave None), in nanoseconds.
	BaselineNs float64 `json:"baseline_ns_per_tick"`
	// MasterNs[k] / SlaveNs[k] are the marginal per-tick costs of
	// enabling EA k+1 alone on that node, in nanoseconds.
	MasterNs []float64 `json:"master_ea_ns_per_tick"`
	SlaveNs  []float64 `json:"slave_ea_ns_per_tick"`
	// AllNs is the measured per-tick cost of the All/All build, kept to
	// validate the cost model's additivity assumption.
	AllNs float64 `json:"all_ns_per_tick"`
	// Ticks and Reps record the calibration's measurement parameters.
	Ticks int `json:"ticks,omitempty"`
	Reps  int `json:"reps,omitempty"`
}

// Key locates one run inside a campaign: the coordinates that, together
// with the campaign seed, determine the run completely.
type Key struct {
	// Version, ErrIdx and CaseIdx are the Record coordinates.
	Version, ErrIdx, CaseIdx int
}

// Key returns the record's campaign coordinates.
func (r Record) Key() Key {
	return Key{Version: r.Version, ErrIdx: r.ErrIdx, CaseIdx: r.CaseIdx}
}

// Log is a loaded journal: the campaign headers and every complete run
// record, in file order.
type Log struct {
	// Headers lists the campaign header lines (one per campaign start
	// or resume).
	Headers []Header
	// Runs lists the completed-run records.
	Runs []Record
	// Probes lists the optimizer probe records of a lattice sweep.
	Probes []Probe
	// Costs lists the optimizer cost calibrations (one per sweep start).
	Costs []Cost
	// Truncated reports that the final line was incomplete — the
	// signature of a killed campaign — and was dropped.
	Truncated bool
}

// Load reads a journal file. A malformed final line (interrupted mid
// write) is dropped and flagged via Truncated; a malformed interior
// line is an error, since it means the file is not a journal.
func Load(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	log, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return log, nil
}

// Read parses a journal from a stream. Semantics match Load: a
// malformed final line is dropped and flagged Truncated, a malformed
// interior line is an error. Lines of a kind this package does not
// know — a retired kind such as the shard-ledger "claim" lines older
// builds wrote, or a future one — are skipped.
//
// Lines are decoded one at a time, straight off the scanner: every
// writer emits "kind" as its first key, so the kind is read off the
// line's {"kind":"…" prefix and the line goes straight into that kind's
// type. A run line in the exact shape Writer.Run emits is decoded
// without reflection (decodeRun); any other line is unmarshalled once
// by encoding/json. A line that does not start with its kind, or whose
// decode fails or names another kind (a duplicate "kind" key, where the
// last one wins), takes the general path instead: unmarshal "kind"
// alone, then the record it names.
func Read(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	log := &Log{}
	n := 0
	// malformed holds the latest line's kind-probe error: the line is
	// a truncated tail unless a later non-empty line follows it.
	var malformed error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if malformed != nil {
			return nil, malformed
		}
		n++
		if kind := sniffKind(line); kind != "" && log.decode(kind, line, kind) == nil {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			malformed = fmt.Errorf("line %d: %w", n, err)
			continue
		}
		if err := log.decode(probe.Kind, line, ""); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading: %w", err)
	}
	log.Truncated = malformed != nil
	return log, nil
}

// kindPrefix opens every line the journal's writers emit.
const kindPrefix = `{"kind":"`

// sniffKind returns the known kind that line opens with, or "" when the
// line does not start with a known kind's {"kind":"…" prefix.
func sniffKind(line []byte) string {
	if !bytes.HasPrefix(line, []byte(kindPrefix)) {
		return ""
	}
	rest := line[len(kindPrefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	for _, kind := range [...]string{KindHeader, KindRun, KindProbe, KindCost} {
		if string(rest[:end]) == kind {
			return kind
		}
	}
	return ""
}

// maxPresizedRuns caps the Runs capacity Read reserves from a header's
// total_runs, which a corrupt or hand-edited journal could inflate.
const maxPresizedRuns = 1 << 17

// errKindMismatch reports a line whose decoded kind is not the one its
// prefix named.
var errKindMismatch = errors.New("decoded kind differs from the line's prefix")

// decode unmarshals line as a record of the given kind and appends it to
// the log; unknown kinds are skipped so old readers survive future record
// types. A non-empty want refuses, unappended, a record whose decoded
// Kind is not want.
func (l *Log) decode(kind string, line []byte, want string) error {
	switch kind {
	case KindHeader:
		var h Header
		if err := unmarshalKind(line, &h, &h.Kind, want); err != nil {
			return err
		}
		l.Headers = append(l.Headers, h)
	case KindRun:
		var prevExp string
		if len(l.Runs) > 0 {
			prevExp = l.Runs[len(l.Runs)-1].Experiment
		}
		r, ok := decodeRun(line, prevExp)
		if !ok {
			// Decoding into u, not r, keeps r off the heap.
			var u Record
			if err := unmarshalKind(line, &u, &u.Kind, want); err != nil {
				return err
			}
			r = u
		}
		if l.Runs == nil && len(l.Headers) > 0 {
			l.Runs = make([]Record, 0, min(max(l.Headers[0].Total, 1), maxPresizedRuns))
		}
		l.Runs = append(l.Runs, r)
	case KindProbe:
		var p Probe
		if err := unmarshalKind(line, &p, &p.Kind, want); err != nil {
			return err
		}
		l.Probes = append(l.Probes, p)
	case KindCost:
		var c Cost
		if err := unmarshalKind(line, &c, &c.Kind, want); err != nil {
			return err
		}
		l.Costs = append(l.Costs, c)
	}
	return nil
}

// unmarshalKind unmarshals line into v, whose Kind field is kind, and
// refuses the result when want is set and the decoded kind is not want.
func unmarshalKind(line []byte, v any, kind *string, want string) error {
	if err := json.Unmarshal(line, v); err != nil {
		return err
	}
	if want != "" && *kind != want {
		return errKindMismatch
	}
	return nil
}

// Header returns the first header of the named experiment.
func (l *Log) Header(experiment string) (Header, bool) {
	for _, h := range l.Headers {
		if h.Experiment == experiment {
			return h, true
		}
	}
	return Header{}, false
}

// CheckResume checks the header of want's experiment, if the log has
// one, against want (Header.Match), so a resume cannot replay records
// of another protocol or engine.
func (l *Log) CheckResume(want Header) error {
	h, ok := l.Header(want.Experiment)
	if !ok {
		return nil
	}
	return h.Match(want)
}

// LookupProbes indexes the named experiment's probe records by their
// coordinates; when a probe appears twice (a journal resumed more than
// once) the last occurrence wins — re-executions are byte-identical by
// the determinism contract, matching Lookup's run semantics.
func (l *Log) LookupProbes(experiment string) map[ProbeKey]Probe {
	out := make(map[ProbeKey]Probe, len(l.Probes))
	for _, p := range l.Probes {
		if p.Experiment == experiment {
			out[p.Key()] = p
		}
	}
	return out
}

// Cost returns the named experiment's first cost calibration. First,
// not last: the first sweep measured it, every resume replays it, and
// the front's byte-identity depends on scoring against the original
// measurement.
func (l *Log) Cost(experiment string) (Cost, bool) {
	for _, c := range l.Costs {
		if c.Experiment == experiment {
			return c, true
		}
	}
	return Cost{}, false
}

// Lookup indexes the named experiment's runs by their coordinates,
// pointing into Runs rather than copying them; when a run appears twice
// (a journal resumed more than once) the last occurrence wins.
func (l *Log) Lookup(experiment string) map[Key]*Record {
	out := make(map[Key]*Record, len(l.Runs))
	for i := range l.Runs {
		if r := &l.Runs[i]; r.Experiment == experiment {
			out[r.Key()] = r
		}
	}
	return out
}

// Merge combines shard journals into one logical campaign journal — the
// reduce step of a sharded campaign (fic merge): each shard journals
// its runs to its own file, and the merged journal is replayed into the
// Table 7-9 aggregators.
//
// Every experiment's headers must Match (they were recorded by shards
// of the same protocol); the merged header sums the shard totals.
// Duplicate run records — a shard re-executed after it was cut, or
// passed twice — are tolerated: the determinism contract
// (seed = f(campaign seed, case)) makes every re-execution of a run
// byte-identical, so the merge keeps the last occurrence, matching
// Lookup's resume semantics. Merge order therefore cannot change a
// table cell.
func Merge(logs ...*Log) (*Log, error) {
	merged := &Log{}
	runs := 0
	for _, l := range logs {
		if l != nil {
			runs += len(l.Runs)
		}
	}
	if runs > 0 {
		merged.Runs = make([]Record, 0, runs)
	}
	byExp := make(map[string]*Header)
	var expOrder []string
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("journal: merge: shard %d is nil", i)
		}
		for _, h := range l.Headers {
			have := byExp[h.Experiment]
			if have == nil {
				h := h
				byExp[h.Experiment] = &h
				expOrder = append(expOrder, h.Experiment)
				continue
			}
			if err := h.Match(*have); err != nil {
				return nil, fmt.Errorf("journal: merge: shards disagree: %w", err)
			}
			have.Total += h.Total
		}
		merged.Runs = append(merged.Runs, l.Runs...)
		if l.Truncated {
			merged.Truncated = true
		}
	}
	for _, exp := range expOrder {
		merged.Headers = append(merged.Headers, *byExp[exp])
	}
	return merged, nil
}
