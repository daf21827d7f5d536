package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
)

// testLease and testBase pin the lease-board clock in tests.
const testLease = time.Minute

func testBase() time.Time { return time.Unix(1_000_000, 0) }

// The distributed campaign's core guarantee (ISSUE 8, SERVICE.md):
// shard journals executed by separate workers merge into tables
// byte-identical to a single-process run — under out-of-order shard
// completion, duplicated run records, a journal truncated mid-batch,
// and a lease-expiry re-execution.

// runE1Shard executes one shard of the campaign as a worker process
// would — the Spec restricted to the shard's cases, journaling to its
// own file — and returns the loaded shard journal.
func runE1Shard(t *testing.T, spec Spec, sh Shard) *journal.Log {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Exec: Exec{Workers: 2, Journal: w}}
	cfg.Cases = sh.Cases
	if _, err := RunE1(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardJournal(spec, ExperimentE1, sh, inject.ModeSnapshot.String(), log); err != nil {
		t.Fatalf("shard %d journal invalid: %v", sh.Index, err)
	}
	return log
}

// e1Baseline runs the single-process campaign and renders its tables.
func e1Baseline(t *testing.T, spec Spec) (t7, t8 string) {
	t.Helper()
	base, err := RunE1(Config{Spec: spec, Exec: Exec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return Table7(base), Table8(base)
}

// mergeE1 merges shard journals and renders the merged tables.
func mergeE1(t *testing.T, spec Spec, logs []*journal.Log) (t7, t8 string) {
	t.Helper()
	res, err := MergeShards(spec, ExperimentE1, inject.ModeAuto, logs)
	if err != nil {
		t.Fatal(err)
	}
	return Table7(res.E1), Table8(res.E1)
}

func TestMergedShardsMatchSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := shardTestSpec(515151)
	wantT7, wantT8 := e1Baseline(t, spec)

	shards, err := PlanShards(spec, ExperimentE1, 1)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*journal.Log, len(shards))
	for i, sh := range shards {
		logs[i] = runE1Shard(t, spec, sh)
	}

	// In plan order.
	t7, t8 := mergeE1(t, spec, logs)
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("in-order merged tables differ from the single-process run")
	}

	// Out-of-order shard completion: reversed and interleaved merge
	// orders produce the same bytes.
	rev := []*journal.Log{logs[3], logs[1], logs[2], logs[0]}
	t7, t8 = mergeE1(t, spec, rev)
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("out-of-order merged tables differ from the single-process run")
	}

	// Overlapping/duplicate records: shard 2 uploaded twice (the
	// reclaimed-lease race) dedups to the same bytes.
	dup := append([]*journal.Log{logs[2]}, logs...)
	t7, t8 = mergeE1(t, spec, dup)
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("duplicate-shard merged tables differ from the single-process run")
	}
}

func TestMergeRejectsTruncatedShardThenRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := shardTestSpec(626262)
	wantT7, wantT8 := e1Baseline(t, spec)

	shards, err := PlanShards(spec, ExperimentE1, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]*journal.Log, len(shards))
	for i, sh := range shards {
		full[i] = runE1Shard(t, spec, sh)
	}

	// Truncate shard 1's journal mid-batch: write it back without its
	// tail and with the final surviving line cut in half — exactly what
	// a worker killed mid write leaves behind.
	path := filepath.Join(t.TempDir(), "trunc.jsonl")
	wr, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h := full[1].Headers[0]
	if err := wr.Header(h); err != nil {
		t.Fatal(err)
	}
	for _, rec := range full[1].Runs[:len(full[1].Runs)/2] {
		if err := wr.Run(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	truncated, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated.Truncated {
		t.Fatal("truncated journal not flagged")
	}

	// The upload validator rejects it, naming the incompleteness.
	if err := ValidateShardJournal(spec, ExperimentE1, shards[1], inject.ModeSnapshot.String(), truncated); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("ValidateShardJournal(truncated) = %v, want incomplete", err)
	}

	// Merging it anyway trips the replay-only guard instead of silently
	// re-executing the lost runs.
	if _, err := MergeShards(spec, ExperimentE1, inject.ModeAuto, []*journal.Log{full[0], truncated}); err == nil ||
		!strings.Contains(err.Error(), "replay-only") {
		t.Fatalf("MergeShards(truncated) = %v, want replay-only error", err)
	}

	// Re-uploading the complete shard journal recovers byte-identical
	// tables.
	t7, t8 := mergeE1(t, spec, []*journal.Log{full[0], truncated, full[1]})
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("recovered merged tables differ from the single-process run")
	}
}

func TestLeaseExpiryReclaimMergesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := shardTestSpec(737373)
	wantT7, wantT8 := e1Baseline(t, spec)

	shards, err := PlanShards(spec, ExperimentE1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Worker a claims shard 0 and dies mid-shard, leaving a partial
	// journal; after the lease expires, worker b reclaims shard 0 and
	// re-executes it in full.
	board := NewShardBoard("c", ExperimentE1, shards, testLease, nil)
	base := testBase()
	if sh, ok, _ := board.Claim("a", base); !ok || sh.Index != 0 {
		t.Fatal("worker a could not claim shard 0")
	}
	full0 := runE1Shard(t, spec, shards[0])
	partial0 := &journal.Log{
		Headers:   full0.Headers,
		Runs:      full0.Runs[:len(full0.Runs)/3],
		Truncated: true,
	}
	reclaimed := board.ReclaimExpired(base.Add(2 * testLease))
	if len(reclaimed) != 1 || reclaimed[0].Index != 0 {
		t.Fatalf("ReclaimExpired = %+v, want shard 0", reclaimed)
	}
	if sh, ok, _ := board.Claim("b", base.Add(2*testLease)); !ok || sh.Index != 0 {
		t.Fatal("worker b could not reclaim shard 0")
	}
	redone0 := runE1Shard(t, spec, shards[0])
	log1 := runE1Shard(t, spec, shards[1])

	// The merge sees a's partial upload AND b's complete re-execution:
	// overlapping records dedup, and the tables are byte-identical to
	// the single-process campaign.
	res, err := MergeShards(spec, ExperimentE1, inject.ModeAuto, []*journal.Log{partial0, redone0, log1})
	if err != nil {
		t.Fatal(err)
	}
	if Table7(res.E1) != wantT7 || Table8(res.E1) != wantT8 {
		t.Fatal("lease-reclaim merged tables differ from the single-process run")
	}
}

func TestMergedE2MatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := shardTestSpec(848484)
	base, err := RunE2(Config{Spec: spec, Exec: Exec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := Table9(base)

	shards, err := PlanShards(spec, ExperimentE2, 2)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*journal.Log, len(shards))
	for i, sh := range shards {
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Spec: spec, Exec: Exec{Workers: 2, Journal: w}}
		cfg.Cases = sh.Cases
		if _, err := RunE2(cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = journal.Load(path); err != nil {
			t.Fatal(err)
		}
		if err := ValidateShardJournal(spec, ExperimentE2, sh, inject.ModeSnapshot.String(), logs[i]); err != nil {
			t.Fatalf("shard %d journal invalid: %v", sh.Index, err)
		}
	}
	res, err := MergeShards(spec, ExperimentE2, inject.ModeAuto, []*journal.Log{logs[1], logs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if Table9(res.E2) != want {
		t.Fatal("merged Table 9 differs from the single-process run")
	}
}
