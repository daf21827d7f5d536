package experiment

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/target"
)

// This file is the cross-process half of campaign scaling (ROADMAP
// item 1): the shard plan that cuts a campaign's (error × case ×
// version) grid into claimable work units, the lease state machine that
// hands shards to worker processes and reclaims them from crashed ones,
// and the merge step that folds completed shard journals back into the
// paper's Tables 7-9.
//
// Sharding is by test case. The determinism contract (ARCHITECTURE.md)
// derives every per-run seed from the campaign seed and the GLOBAL
// test-case index alone — runSeed(seed, caseIdx) — so a shard executed
// on any machine, any number of times, in any order produces journal
// records byte-identical to the same runs of a single-process campaign.
// That is what makes the whole protocol boring in the best sense:
// re-execution after a lease expiry is idempotent, merge order is
// irrelevant, and the merged tables are proved byte-identical by test
// (merge_test.go) and by the CI smoke job.

// Shard is one claimable work unit of a distributed campaign: a block
// of test-case indices plus the run count it contributes.
type Shard struct {
	// Index is the shard's position in the campaign's shard plan.
	Index int `json:"index"`
	// Cases lists the global grid case indices the shard covers.
	Cases []int `json:"cases"`
	// Runs is the number of (version, error, case) runs in the shard.
	Runs int `json:"runs"`
}

// ExperimentName canonicalizes a submitted campaign kind ("e1", "e2",
// "exhaustive") against the Spec into the journal experiment name.
func ExperimentName(kind string, spec Spec) (string, error) {
	switch kind {
	case "e1", "E1":
		return ExperimentE1, nil
	case "e2", "E2":
		if spec.Exhaustive {
			return ExperimentExhaustive, nil
		}
		return ExperimentE2, nil
	case "exhaustive", ExperimentExhaustive:
		return ExperimentExhaustive, nil
	default:
		return "", fmt.Errorf("experiment: unknown campaign kind %q (want e1, e2 or exhaustive)", kind)
	}
}

// errorCount returns the size of the experiment's error set under the
// Spec (after defaulting), without materializing E2's random sample.
func (s Spec) errorCount(exp string) (int, error) {
	switch exp {
	case ExperimentE1:
		return len(inject.BuildE1()), nil
	case ExperimentE2:
		e2 := s.E2
		if e2.RAM == 0 && e2.Stack == 0 {
			e2 = inject.DefaultE2Spec()
		}
		return e2.RAM + e2.Stack, nil
	case ExperimentExhaustive:
		return inject.ExhaustiveSize, nil
	default:
		return 0, fmt.Errorf("experiment: unknown experiment %q", exp)
	}
}

// shardVersions returns the version set the experiment exercises: E1
// runs the Spec's version list, E2 only the All-assertions build.
func (s Spec) shardVersions(exp string) []target.Version {
	if exp == ExperimentE1 {
		if len(s.Versions) == 0 {
			return target.Versions()
		}
		return s.Versions
	}
	return []target.Version{target.VersionAll}
}

// PlanShards cuts the campaign Spec into shards of casesPerShard
// contiguous test cases (the last shard may be smaller). The plan is a
// pure function of (Spec, experiment, casesPerShard): every service
// restart and every worker derives the same plan, so shard indices are
// stable identifiers across processes.
func PlanShards(spec Spec, exp string, casesPerShard int) ([]Shard, error) {
	cfg := Config{Spec: spec}.withDefaults()
	if len(spec.Cases) != 0 {
		return nil, fmt.Errorf("experiment: a sharded campaign Spec must cover the full grid (Spec.Cases is the per-shard selector)")
	}
	if casesPerShard <= 0 {
		casesPerShard = 1
	}
	nErr, err := cfg.Spec.errorCount(exp)
	if err != nil {
		return nil, err
	}
	runsPerCase := nErr * len(cfg.Spec.shardVersions(exp))
	nCases := cfg.Grid * cfg.Grid
	var shards []Shard
	for lo := 0; lo < nCases; lo += casesPerShard {
		hi := lo + casesPerShard
		if hi > nCases {
			hi = nCases
		}
		sh := Shard{Index: len(shards), Cases: make([]int, 0, hi-lo)}
		for c := lo; c < hi; c++ {
			sh.Cases = append(sh.Cases, c)
		}
		sh.Runs = runsPerCase * len(sh.Cases)
		shards = append(shards, sh)
	}
	return shards, nil
}

// expectedShardKeys enumerates the exact run coordinates a shard's
// journal must contain, mapped to their required per-run seeds. The
// service validates every uploaded shard journal against this set: a
// missing key means the upload is incomplete (e.g. truncated by a
// worker crash mid-batch), a foreign key means the worker ran the wrong
// shard, and a wrong seed means it ran a different campaign.
func expectedShardKeys(spec Spec, exp string, cases []int) (map[journal.Key]int64, error) {
	cfg := Config{Spec: spec}.withDefaults()
	nErr, err := cfg.Spec.errorCount(exp)
	if err != nil {
		return nil, err
	}
	versions := cfg.Spec.shardVersions(exp)
	keys := make(map[journal.Key]int64, nErr*len(versions)*len(cases))
	for _, v := range versions {
		for ei := 0; ei < nErr; ei++ {
			for _, ci := range cases {
				keys[journal.Key{Version: int(v), ErrIdx: ei, CaseIdx: ci}] = runSeed(cfg.Seed, ci)
			}
		}
	}
	return keys, nil
}

// ValidateShardJournal checks an uploaded shard journal against the
// campaign: header identity (experiment, protocol and runner mode, see
// journal.Header.Match), completeness (every expected run present — a
// truncated journal is rejected here, keeping the shard claimable),
// per-record seeds, and the absence of foreign runs.
func ValidateShardJournal(spec Spec, exp string, shard Shard, runner string, log *journal.Log) error {
	h, ok := log.Header(exp)
	if !ok {
		return fmt.Errorf("experiment: shard %d journal has no %s header", shard.Index, exp)
	}
	if err := h.Match(Config{Spec: spec}.header(exp, runner, 0)); err != nil {
		return fmt.Errorf("experiment: shard %d: %w", shard.Index, err)
	}
	want, err := expectedShardKeys(spec, exp, shard.Cases)
	if err != nil {
		return err
	}
	got := log.Lookup(exp)
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("experiment: shard %d journal contains foreign run %+v (not in the shard's cases)", shard.Index, k)
		}
	}
	for k, seed := range want {
		rec, ok := got[k]
		if !ok {
			return fmt.Errorf("experiment: shard %d journal is incomplete: %d of %d runs present (first missing: version %d error %d case %d)%s",
				shard.Index, len(got), len(want), k.Version, k.ErrIdx, k.CaseIdx,
				map[bool]string{true: " — journal has a truncated tail", false: ""}[log.Truncated])
		}
		if rec.Seed != seed {
			return fmt.Errorf("experiment: shard %d run %+v has seed %d, want %d — journal is from a different campaign",
				shard.Index, k, rec.Seed, seed)
		}
	}
	return nil
}

// MergeShards folds completed shard journals into campaign results: the
// journals are merged (journal.Merge validates their common identity
// and dedups re-executed runs) and replayed through the normal campaign
// aggregators under Exec.ReplayOnly, so a lost shard surfaces as an
// error instead of being silently re-simulated. The returned Results
// render Tables 7-9 byte-identical to a single-process campaign of the
// same Spec — the distributed campaign's core guarantee.
func MergeShards(spec Spec, exp string, mode inject.Mode, logs []*journal.Log) (*Results, error) {
	merged, err := journal.Merge(logs...)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Spec: spec,
		Exec: Exec{Mode: mode, Workers: 1, Resume: merged, ReplayOnly: true},
	}
	res := &Results{Spec: cfg.Spec, Journal: merged}
	switch exp {
	case ExperimentE1:
		res.E1, err = RunE1(cfg)
	case ExperimentE2, ExperimentExhaustive:
		if exp == ExperimentExhaustive {
			cfg.Exhaustive = true
			res.Spec.Exhaustive = true
		}
		res.E2, err = RunE2(cfg)
	default:
		err = fmt.Errorf("experiment: unknown experiment %q", exp)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Shard lease states.
const (
	// ShardPending: unclaimed, or reclaimed after a lease expiry.
	ShardPending = "pending"
	// ShardLeased: a worker holds the shard's lease and must heartbeat
	// before it expires.
	ShardLeased = "leased"
	// ShardDone: the shard's journal was uploaded and validated.
	ShardDone = "done"
)

// ErrShardComplete reports a completion for a shard that is already
// done — the benign race of a reclaimed lease whose original worker
// finished anyway. Determinism makes both uploads byte-identical, so
// callers treat this as an idempotent success, not a failure.
var ErrShardComplete = errors.New("experiment: shard already complete")

// ShardStatus is one shard's observable state (the service's campaign
// status endpoint renders these).
type ShardStatus struct {
	Shard
	// State is ShardPending, ShardLeased or ShardDone.
	State string `json:"state"`
	// Worker is the current lease holder (leased shards) or the worker
	// that completed the shard (done shards).
	Worker string `json:"worker,omitempty"`
	// LeaseUntilMs is the lease expiry in Unix milliseconds.
	LeaseUntilMs int64 `json:"lease_until_ms,omitempty"`
	// Completed is the lease holder's last heartbeat-reported run count.
	Completed int `json:"completed_runs,omitempty"`
}

// ShardBoard is the lease state machine of one distributed campaign:
// pending -> leased (Claim) -> done (Complete), with leased -> pending
// on lease expiry (ReclaimExpired). All methods take explicit times so
// the machine is deterministic under test; the service passes
// time.Now(). The board is safe for concurrent use — every HTTP
// handler of the service may touch it.
//
// The board optionally appends every transition to a journal.Claim
// ledger sink (the "layered on the existing journal" half of the
// protocol): after a service restart, RestoreShardBoard replays the
// ledger to recover leases and completions, so a mid-campaign restart
// loses nothing but the in-flight heartbeats.
type ShardBoard struct {
	mu         sync.Mutex
	campaign   string
	experiment string
	lease      time.Duration
	shards     []Shard
	state      []string
	worker     []string
	leaseUntil []time.Time
	completed  []int
	record     func(journal.Claim) error
}

// NewShardBoard builds a board over the shard plan. lease is the claim
// lifetime between heartbeats; record, when non-nil, receives every
// claim/complete transition for the persistent ledger.
func NewShardBoard(campaign, experiment string, shards []Shard, lease time.Duration, record func(journal.Claim) error) *ShardBoard {
	b := &ShardBoard{
		campaign:   campaign,
		experiment: experiment,
		lease:      lease,
		shards:     shards,
		state:      make([]string, len(shards)),
		worker:     make([]string, len(shards)),
		leaseUntil: make([]time.Time, len(shards)),
		completed:  make([]int, len(shards)),
		record:     record,
	}
	for i := range b.state {
		b.state[i] = ShardPending
	}
	return b
}

// RestoreShardBoard rebuilds a board from its persisted ledger: claims
// re-establish leases (the latest line per shard wins) and shard_done
// lines retire shards. Expired leases are left leased — the next
// ReclaimExpired or Claim sweep returns them to pending, exactly as if
// the service had never restarted.
func RestoreShardBoard(campaign, experiment string, shards []Shard, lease time.Duration, claims []journal.Claim, record func(journal.Claim) error) *ShardBoard {
	b := NewShardBoard(campaign, experiment, shards, lease, record)
	for _, c := range claims {
		if c.Campaign != campaign || c.Shard < 0 || c.Shard >= len(shards) {
			continue
		}
		switch c.Kind {
		case journal.KindClaim:
			if b.state[c.Shard] != ShardDone {
				b.state[c.Shard] = ShardLeased
				b.worker[c.Shard] = c.Worker
				b.leaseUntil[c.Shard] = time.UnixMilli(c.GrantedMs + c.LeaseMs)
			}
		case journal.KindShardDone:
			b.state[c.Shard] = ShardDone
			b.worker[c.Shard] = c.Worker
			b.completed[c.Shard] = c.Runs
		}
	}
	return b
}

// claimLine journals one transition through the ledger sink.
func (b *ShardBoard) claimLine(kind string, shard int, now time.Time) error {
	if b.record == nil {
		return nil
	}
	c := journal.Claim{
		Kind:       kind,
		Experiment: b.experiment,
		Campaign:   b.campaign,
		Shard:      shard,
		Cases:      b.shards[shard].Cases,
		Worker:     b.worker[shard],
	}
	if kind == journal.KindClaim {
		c.GrantedMs = now.UnixMilli()
		c.LeaseMs = b.lease.Milliseconds()
	} else {
		c.Runs = b.completed[shard]
	}
	return b.record(c)
}

// reclaimLocked returns expired leases to pending. Caller holds b.mu.
func (b *ShardBoard) reclaimLocked(now time.Time) []Shard {
	var reclaimed []Shard
	for i, st := range b.state {
		if st == ShardLeased && now.After(b.leaseUntil[i]) {
			b.state[i] = ShardPending
			b.worker[i] = ""
			b.completed[i] = 0
			reclaimed = append(reclaimed, b.shards[i])
		}
	}
	return reclaimed
}

// ReclaimExpired returns every expired lease to pending and reports the
// reclaimed shards (the service broadcasts them as events).
func (b *ShardBoard) ReclaimExpired(now time.Time) []Shard {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reclaimLocked(now)
}

// Claim leases the lowest-indexed claimable shard to worker. Expired
// leases are swept first, so a crashed worker's shards are reclaimable
// the moment their lease runs out. ok is false when nothing is
// claimable (all shards leased or done).
func (b *ShardBoard) Claim(worker string, now time.Time) (Shard, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reclaimLocked(now)
	for i, st := range b.state {
		if st != ShardPending {
			continue
		}
		b.state[i] = ShardLeased
		b.worker[i] = worker
		b.leaseUntil[i] = now.Add(b.lease)
		b.completed[i] = 0
		if err := b.claimLine(journal.KindClaim, i, now); err != nil {
			return Shard{}, false, err
		}
		return b.shards[i], true, nil
	}
	return Shard{}, false, nil
}

// Heartbeat renews worker's lease on shard and records its progress.
// A heartbeat for a lease the worker no longer holds (expired and
// reclaimed, or completed by another worker) is an error — the worker
// should abandon the shard.
func (b *ShardBoard) Heartbeat(worker string, shard, completed int, now time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if shard < 0 || shard >= len(b.shards) {
		return fmt.Errorf("experiment: heartbeat for unknown shard %d", shard)
	}
	b.reclaimLocked(now)
	if b.state[shard] != ShardLeased || b.worker[shard] != worker {
		return fmt.Errorf("experiment: worker %s no longer holds the lease on shard %d (state %s, holder %q)",
			worker, shard, b.state[shard], b.worker[shard])
	}
	b.leaseUntil[shard] = now.Add(b.lease)
	if completed > b.completed[shard] {
		b.completed[shard] = completed
	}
	return nil
}

// Complete retires shard after its journal validated. The completion is
// accepted from the lease holder, and also from a worker whose lease
// expired but whose shard was not yet re-leased (pending) — its work is
// valid by determinism, and accepting it saves the re-execution. A
// shard already done returns ErrShardComplete (idempotent duplicate); a
// shard re-leased to another worker rejects the stale completion so the
// ledger names a single completing worker per shard.
func (b *ShardBoard) Complete(worker string, shard, runs int, now time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if shard < 0 || shard >= len(b.shards) {
		return fmt.Errorf("experiment: completion for unknown shard %d", shard)
	}
	b.reclaimLocked(now)
	switch {
	case b.state[shard] == ShardDone:
		return ErrShardComplete
	case b.state[shard] == ShardLeased && b.worker[shard] != worker:
		return fmt.Errorf("experiment: shard %d is leased to %s, rejecting stale completion from %s",
			shard, b.worker[shard], worker)
	}
	b.state[shard] = ShardDone
	b.worker[shard] = worker
	b.completed[shard] = runs
	return b.claimLine(journal.KindShardDone, shard, now)
}

// Done reports whether every shard is complete.
func (b *ShardBoard) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, st := range b.state {
		if st != ShardDone {
			return false
		}
	}
	return true
}

// Statuses snapshots every shard's state for the status endpoint.
func (b *ShardBoard) Statuses() []ShardStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ShardStatus, len(b.shards))
	for i, sh := range b.shards {
		out[i] = ShardStatus{
			Shard:     sh,
			State:     b.state[i],
			Worker:    b.worker[i],
			Completed: b.completed[i],
		}
		if b.state[i] == ShardLeased {
			out[i].LeaseUntilMs = b.leaseUntil[i].UnixMilli()
		}
	}
	return out
}
