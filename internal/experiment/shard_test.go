package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
)

// shardTestSpec is the scaled campaign the shard tests plan against:
// 4 cases, 2 versions — small enough to enumerate by hand.
func shardTestSpec(seed int64) Spec {
	return resumeTestConfig(seed).Spec
}

func TestPlanShards(t *testing.T) {
	spec := shardTestSpec(7)
	shards, err := PlanShards(spec, ExperimentE1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("PlanShards(1 case/shard) = %d shards, want 4", len(shards))
	}
	nErr, err := spec.errorCount(ExperimentE1)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := nErr * len(spec.Versions)
	for i, sh := range shards {
		if sh.Index != i {
			t.Errorf("shard %d has Index %d", i, sh.Index)
		}
		if len(sh.Cases) != 1 || sh.Cases[0] != i {
			t.Errorf("shard %d covers cases %v, want [%d]", i, sh.Cases, i)
		}
		if sh.Runs != wantRuns {
			t.Errorf("shard %d has %d runs, want %d", i, sh.Runs, wantRuns)
		}
	}

	// Uneven split: 3 cases per shard over 4 cases -> 3 + 1.
	shards, err = PlanShards(spec, ExperimentE1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(shards[0].Cases) != 3 || len(shards[1].Cases) != 1 {
		t.Fatalf("PlanShards(3 cases/shard) = %+v, want shards of 3 and 1 cases", shards)
	}

	// A Spec that is already a shard cannot be re-sharded.
	sub := spec
	sub.Cases = []int{1}
	if _, err := PlanShards(sub, ExperimentE1, 1); err == nil {
		t.Fatal("PlanShards accepted a Spec with Cases set")
	}
}

func TestExpectedShardKeys(t *testing.T) {
	spec := shardTestSpec(7)
	keys, err := expectedShardKeys(spec, ExperimentE1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	nErr, _ := spec.errorCount(ExperimentE1)
	if want := nErr * len(spec.Versions); len(keys) != want {
		t.Fatalf("expectedShardKeys = %d keys, want %d", len(keys), want)
	}
	for k, seed := range keys {
		if k.CaseIdx != 2 {
			t.Fatalf("key %+v is outside the shard's case", k)
		}
		if want := runSeed(spec.Seed, 2); seed != want {
			t.Fatalf("key %+v has seed %d, want %d", k, seed, want)
		}
	}
	// E2 keys carry only the All version.
	keys, err = expectedShardKeys(spec, ExperimentE2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nErr, _ = spec.errorCount(ExperimentE2)
	if want := nErr * 2; len(keys) != want {
		t.Fatalf("E2 expectedShardKeys = %d keys, want %d", len(keys), want)
	}
}

func TestExperimentName(t *testing.T) {
	spec := shardTestSpec(7)
	if exp, err := ExperimentName("e1", spec); err != nil || exp != ExperimentE1 {
		t.Fatalf("ExperimentName(e1) = %q, %v", exp, err)
	}
	if exp, err := ExperimentName("e2", spec); err != nil || exp != ExperimentE2 {
		t.Fatalf("ExperimentName(e2) = %q, %v", exp, err)
	}
	spec.Exhaustive = true
	if exp, err := ExperimentName("e2", spec); err != nil || exp != ExperimentExhaustive {
		t.Fatalf("ExperimentName(e2, exhaustive) = %q, %v", exp, err)
	}
	if _, err := ExperimentName("e3", spec); err == nil {
		t.Fatal("ExperimentName accepted e3")
	}
}

// fakeShardJournal fabricates a complete in-memory shard journal for
// validation tests (no campaign execution).
func fakeShardJournal(spec Spec, exp string, cases []int, runner string) *journal.Log {
	keys, err := expectedShardKeys(spec, exp, cases)
	if err != nil {
		panic(err)
	}
	h := Config{Spec: spec}.header(exp, runner, len(keys))
	h.Kind = journal.KindHeader
	log := &journal.Log{Headers: []journal.Header{h}}
	for k, seed := range keys {
		log.Runs = append(log.Runs, journal.Record{
			Kind: journal.KindRun, Experiment: exp,
			Version: k.Version, ErrIdx: k.ErrIdx, CaseIdx: k.CaseIdx,
			Seed: seed, Detected: true,
		})
	}
	return log
}

func TestValidateShardJournal(t *testing.T) {
	spec := shardTestSpec(7)
	shards, err := PlanShards(spec, ExperimentE1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[1]
	good := fakeShardJournal(spec, ExperimentE1, sh.Cases, "snapshot")
	if err := ValidateShardJournal(spec, ExperimentE1, sh, "snapshot", good); err != nil {
		t.Fatalf("complete shard journal rejected: %v", err)
	}

	// Incomplete: drop one run.
	short := *good
	short.Runs = good.Runs[:len(good.Runs)-1]
	if err := ValidateShardJournal(spec, ExperimentE1, sh, "snapshot", &short); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete journal error = %v, want incomplete", err)
	}

	// Foreign run: shard 1's journal validated against shard 0.
	if err := ValidateShardJournal(spec, ExperimentE1, shards[0], "snapshot", good); err == nil ||
		!strings.Contains(err.Error(), "foreign") {
		t.Fatalf("foreign-run error = %v, want foreign", err)
	}

	// Wrong campaign seed.
	other := spec
	other.Seed = spec.Seed + 1
	bad := fakeShardJournal(other, ExperimentE1, sh.Cases, "snapshot")
	if err := ValidateShardJournal(spec, ExperimentE1, sh, "snapshot", bad); err == nil {
		t.Fatal("journal from a different seed accepted")
	}

	// Same seed and grid, another injection period.
	other = spec
	other.Policy = inject.Policy{StartMs: 500, PeriodMs: 200}
	bad = fakeShardJournal(other, ExperimentE1, sh.Cases, "snapshot")
	if err := ValidateShardJournal(spec, ExperimentE1, sh, "snapshot", bad); err == nil ||
		!strings.Contains(err.Error(), "policy") {
		t.Fatalf("period-mismatch error = %v, want a policy mismatch", err)
	}

	// Wrong engine.
	if err := ValidateShardJournal(spec, ExperimentE1, sh, "memo", good); err == nil ||
		!strings.Contains(err.Error(), "engine") {
		t.Fatalf("engine-mismatch error = %v, want engine mismatch", err)
	}
}

func TestShardBoardLeaseLifecycle(t *testing.T) {
	spec := shardTestSpec(7)
	shards, err := PlanShards(spec, ExperimentE1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ledger []journal.Claim
	record := func(c journal.Claim) error { ledger = append(ledger, c); return nil }
	board := NewShardBoard("c1", ExperimentE1, shards, time.Minute, record)
	base := time.Unix(1_000_000, 0)

	// Worker a claims shard 0, worker b shard 1; nothing else claimable.
	shA, ok, err := board.Claim("a", base)
	if err != nil || !ok || shA.Index != 0 {
		t.Fatalf("Claim(a) = %+v, %v, %v", shA, ok, err)
	}
	shB, ok, err := board.Claim("b", base)
	if err != nil || !ok || shB.Index != 1 {
		t.Fatalf("Claim(b) = %+v, %v, %v", shB, ok, err)
	}
	if _, ok, _ := board.Claim("c", base); ok {
		t.Fatal("third claim succeeded on a fully leased board")
	}

	// Heartbeats renew a's lease; b goes silent (crashed).
	if err := board.Heartbeat("a", 0, 10, base.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	// At +80s, a's lease (renewed at +30s) is alive, b's has expired.
	reclaimed := board.ReclaimExpired(base.Add(80 * time.Second))
	if len(reclaimed) != 1 || reclaimed[0].Index != 1 {
		t.Fatalf("ReclaimExpired = %+v, want shard 1", reclaimed)
	}
	// b's stale heartbeat is rejected after the reclaim.
	if err := board.Heartbeat("b", 1, 5, base.Add(81*time.Second)); err == nil {
		t.Fatal("stale heartbeat accepted")
	}
	// a picks up the reclaimed shard.
	shA2, ok, err := board.Claim("a", base.Add(82*time.Second))
	if err != nil || !ok || shA2.Index != 1 {
		t.Fatalf("Claim(a) after reclaim = %+v, %v, %v", shA2, ok, err)
	}

	// b finishing anyway after the shard was re-leased is rejected...
	if err := board.Complete("b", 1, shB.Runs, base.Add(83*time.Second)); err == nil {
		t.Fatal("stale completion accepted while re-leased")
	}
	// ...but both of a's completions land, and a duplicate completion is
	// the idempotent ErrShardComplete.
	if err := board.Complete("a", 0, shA.Runs, base.Add(84*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := board.Complete("a", 1, shA2.Runs, base.Add(85*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := board.Complete("b", 1, shB.Runs, base.Add(86*time.Second)); !errors.Is(err, ErrShardComplete) {
		t.Fatalf("duplicate completion error = %v, want ErrShardComplete", err)
	}
	if !board.Done() {
		t.Fatal("board not done after all completions")
	}

	// The ledger replays into the same terminal state.
	restored := RestoreShardBoard("c1", ExperimentE1, shards, time.Minute, ledger, nil)
	if !restored.Done() {
		t.Fatalf("restored board not done; statuses %+v", restored.Statuses())
	}
}

func TestShardBoardCompleteFromExpiredUnreassignedLease(t *testing.T) {
	spec := shardTestSpec(7)
	shards, err := PlanShards(spec, ExperimentE1, 4)
	if err != nil {
		t.Fatal(err)
	}
	board := NewShardBoard("c2", ExperimentE1, shards, time.Minute, nil)
	base := time.Unix(1_000_000, 0)
	if _, ok, _ := board.Claim("a", base); !ok {
		t.Fatal("claim failed")
	}
	// The lease expires but nobody re-claims; a's completion is still
	// valid work (determinism) and is accepted.
	if err := board.Complete("a", 0, shards[0].Runs, base.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if !board.Done() {
		t.Fatal("board not done")
	}
}

func TestRestoreShardBoardRecoversLeases(t *testing.T) {
	spec := shardTestSpec(7)
	shards, err := PlanShards(spec, ExperimentE1, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_000_000, 0)
	ledger := []journal.Claim{
		{Kind: journal.KindClaim, Campaign: "c3", Shard: 0, Worker: "a",
			GrantedMs: base.UnixMilli(), LeaseMs: time.Minute.Milliseconds()},
		{Kind: journal.KindClaim, Campaign: "c3", Shard: 1, Worker: "b",
			GrantedMs: base.UnixMilli(), LeaseMs: time.Minute.Milliseconds()},
		{Kind: journal.KindShardDone, Campaign: "c3", Shard: 1, Worker: "b", Runs: shards[1].Runs},
		// Foreign campaign and out-of-range lines are ignored.
		{Kind: journal.KindClaim, Campaign: "other", Shard: 0, Worker: "x"},
		{Kind: journal.KindClaim, Campaign: "c3", Shard: 99, Worker: "x"},
	}
	board := RestoreShardBoard("c3", ExperimentE1, shards, time.Minute, ledger, nil)

	// Within the lease window, a still holds shard 0.
	st := board.Statuses()
	if st[0].State != ShardLeased || st[0].Worker != "a" {
		t.Fatalf("restored shard 0 = %+v, want leased by a", st[0])
	}
	if st[1].State != ShardDone {
		t.Fatalf("restored shard 1 = %+v, want done", st[1])
	}
	// After expiry the lease is reclaimable by another worker.
	sh, ok, err := board.Claim("c", base.Add(2*time.Minute))
	if err != nil || !ok || sh.Index != 0 {
		t.Fatalf("post-restart claim = %+v, %v, %v", sh, ok, err)
	}
}
