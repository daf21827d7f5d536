package experiment

import (
	"strings"
	"testing"

	"easig/internal/inject"
	"easig/internal/journal"
)

// shardTestSpec is the scaled campaign the shard tests run: 4 cases,
// 2 versions — small enough to enumerate by hand.
func shardTestSpec(seed int64) Spec {
	return resumeTestConfig(seed).Spec
}

// fakeShardJournal fabricates a complete in-memory E1 journal of the
// listed cases under runner, with no campaign execution.
func fakeShardJournal(spec Spec, cases []int, runner string) *journal.Log {
	cfg := Config{Spec: spec}.withDefaults()
	nErr := len(inject.BuildE1())
	log := &journal.Log{}
	for _, v := range cfg.Versions {
		for ei := 0; ei < nErr; ei++ {
			for _, ci := range cases {
				log.Runs = append(log.Runs, journal.Record{
					Kind: journal.KindRun, Experiment: ExperimentE1,
					Version: int(v), ErrIdx: ei, CaseIdx: ci,
					Seed: runSeed(cfg.Seed, ci), Detected: true,
				})
			}
		}
	}
	h := cfg.header(ExperimentE1, runner, len(log.Runs))
	h.Kind = journal.KindHeader
	log.Headers = []journal.Header{h}
	return log
}

// TestMergeShardsRefusals pins every refusal of a bad shard set:
// another protocol, another engine, a missing run, a wrong seed and a
// run outside the campaign's grid.
func TestMergeShardsRefusals(t *testing.T) {
	spec := shardTestSpec(7)
	cfg := Config{Spec: spec}
	a := fakeShardJournal(spec, []int{0, 1}, "snapshot")
	b := fakeShardJournal(spec, []int{2, 3}, "snapshot")
	if _, err := MergeShards(cfg, []*journal.Log{a, b}, ExperimentE1); err != nil {
		t.Fatalf("complete shard set refused: %v", err)
	}

	period := spec
	period.Policy = inject.Policy{StartMs: 500, PeriodMs: 200}
	short := *b
	short.Runs = b.Runs[:len(b.Runs)-1]
	reseeded := *b
	reseeded.Runs = append([]journal.Record(nil), b.Runs...)
	reseeded.Runs[0].Seed++
	foreign := *b
	foreign.Runs = append(append([]journal.Record(nil), b.Runs...), journal.Record{
		Kind: journal.KindRun, Experiment: ExperimentE1,
		Version: b.Runs[0].Version, ErrIdx: 0, CaseIdx: 4, Seed: runSeed(spec.Seed, 4),
	})
	for _, tc := range []struct {
		name   string
		second *journal.Log
		want   string
	}{
		{"another protocol", fakeShardJournal(period, []int{2, 3}, "snapshot"), "policy"},
		{"another engine", fakeShardJournal(spec, []int{2, 3}, "memo"), "engine"},
		{"missing run", &short, "missing 1 of"},
		{"wrong seed", &reseeded, "different campaign"},
		{"run outside the grid", &foreign, "outside the campaign's grid"},
	} {
		if _, err := MergeShards(cfg, []*journal.Log{a, tc.second}, ExperimentE1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MergeShards err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
