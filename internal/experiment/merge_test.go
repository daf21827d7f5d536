package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easig/internal/journal"
)

// The sharded campaign's core guarantee: shard journals executed by
// separate processes merge into tables byte-identical to a
// single-process run — under out-of-order merges, duplicated run
// records, a journal truncated mid-batch, and a re-executed shard.

// runE1Shard executes one shard of the campaign as `fic -cases` does —
// the Spec restricted to the shard's cases, journaling to its own file
// — and returns the loaded shard journal.
func runE1Shard(t *testing.T, spec Spec, cases []int) *journal.Log {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Exec: Exec{Workers: 2, Journal: w}}
	cfg.Cases = cases
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
	res, err := MergeShards(Config{Spec: spec}, logs, ExperimentE1)
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

	logs := make([]*journal.Log, 4)
	for i := range logs {
		logs[i] = runE1Shard(t, spec, []int{i})
	}

	// In case order.
	t7, t8 := mergeE1(t, spec, logs)
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("in-order merged tables differ from the single-process run")
	}

	// Reversed and interleaved merge orders produce the same bytes.
	rev := []*journal.Log{logs[3], logs[1], logs[2], logs[0]}
	t7, t8 = mergeE1(t, spec, rev)
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("out-of-order merged tables differ from the single-process run")
	}

	// Overlapping/duplicate records: shard 2 passed twice dedups to the
	// same bytes.
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

	full := []*journal.Log{runE1Shard(t, spec, []int{0, 1}), runE1Shard(t, spec, []int{2, 3})}

	// Truncate shard 1's journal mid-batch: write it back without its
	// tail and with the final surviving line cut in half — exactly what
	// a shard killed mid-write leaves behind.
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

	// Merging it trips the replay-only guard instead of silently
	// re-executing the lost runs.
	if _, err := MergeShards(Config{Spec: spec}, []*journal.Log{full[0], truncated}, ExperimentE1); err == nil ||
		!strings.Contains(err.Error(), "replay-only") {
		t.Fatalf("MergeShards(truncated) = %v, want replay-only error", err)
	}

	// Adding the complete shard journal recovers byte-identical tables.
	t7, t8 := mergeE1(t, spec, []*journal.Log{full[0], truncated, full[1]})
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("recovered merged tables differ from the single-process run")
	}
}

// TestPartialShardPlusRerunMergesByteIdentical merges a shard journal
// cut partway through, a complete re-run of the same cases and the
// other shard: the overlapping records dedup, and the tables are
// byte-identical to the single-process campaign.
func TestPartialShardPlusRerunMergesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign several times")
	}
	spec := shardTestSpec(737373)
	wantT7, wantT8 := e1Baseline(t, spec)

	full0 := runE1Shard(t, spec, []int{0, 1})
	partial0 := &journal.Log{
		Headers:   full0.Headers,
		Runs:      full0.Runs[:len(full0.Runs)/3],
		Truncated: true,
	}
	rerun0 := runE1Shard(t, spec, []int{0, 1})
	log1 := runE1Shard(t, spec, []int{2, 3})

	t7, t8 := mergeE1(t, spec, []*journal.Log{partial0, rerun0, log1})
	if t7 != wantT7 || t8 != wantT8 {
		t.Fatal("partial-plus-rerun merged tables differ from the single-process run")
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

	shards := [][]int{{0, 1}, {2, 3}}
	logs := make([]*journal.Log, len(shards))
	for i, cases := range shards {
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Spec: spec, Exec: Exec{Workers: 2, Journal: w}}
		cfg.Cases = cases
		if _, err := RunE2(cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = journal.Load(path); err != nil {
			t.Fatal(err)
		}
	}
	res, err := MergeShards(Config{Spec: spec}, []*journal.Log{logs[1], logs[0]}, ExperimentE2)
	if err != nil {
		t.Fatal(err)
	}
	if Table9(res.E2) != want {
		t.Fatal("merged Table 9 differs from the single-process run")
	}
}
