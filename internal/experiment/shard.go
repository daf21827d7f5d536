package experiment

import (
	"fmt"

	"easig/internal/journal"
)

// A campaign runs as shards by setting Spec.Cases: each shard runs the
// campaign's Spec restricted to some test cases and journals to its own
// file, and MergeShards folds the shard journals back into the paper's
// Tables 7-9. Any scheduler may run the shards, on any machine, any
// number of times and in any order: the determinism contract
// (ARCHITECTURE.md) derives every per-run seed from the campaign seed
// and the GLOBAL test-case index alone, runSeed(seed, caseIdx), so a
// shard's records are byte-identical to the same runs of a
// single-process campaign. Re-execution is idempotent, merge order is
// irrelevant, and the merged tables equal the single-process tables
// byte for byte (merge_test.go, cmd/fic's merge tests and the CI
// shard-smoke job).

// MergeShards folds the shard journals of the campaign cfg describes
// into its results for the named experiments, in render order:
// ExperimentE1 and one of ExperimentE2 or ExperimentExhaustive. The
// journals are merged and replayed through the normal campaign
// aggregators under Exec.ReplayOnly. Each kind of bad shard set is
// refused:
//   - a shard of another protocol or engine, by journal.Merge's
//     Header.Match and by partition's resume check;
//   - a missing run (a lost shard, or a journal cut mid-write), by
//     ReplayOnly, instead of being silently re-simulated;
//   - a run with another seed, by partition;
//   - a run outside the campaign's grid, because the merged journal
//     then holds more distinct runs than the campaign has.
//
// A run journaled twice (a re-executed shard) is kept once. The
// returned Results render byte-identical to a single-process campaign
// of the same protocol.
func MergeShards(cfg Config, logs []*journal.Log, exps ...string) (*Results, error) {
	merged, err := journal.Merge(logs...)
	if err != nil {
		return nil, err
	}
	cfg.Resume, cfg.ReplayOnly = merged, true
	res := &Results{Spec: cfg.Spec}
	for _, exp := range exps {
		var runs int
		switch exp {
		case ExperimentE1:
			if res.E1, err = RunE1(cfg); err == nil {
				runs = res.E1.Runs
			}
		case ExperimentE2, ExperimentExhaustive:
			cfg.Exhaustive = exp == ExperimentExhaustive
			res.Spec.Exhaustive = cfg.Exhaustive
			if res.E2, err = RunE2(cfg); err == nil {
				runs = res.E2.Runs
			}
		default:
			err = fmt.Errorf("experiment: unknown experiment %q", exp)
		}
		if err != nil {
			return nil, err
		}
		if n := len(merged.Lookup(exp)); n > runs {
			return nil, fmt.Errorf("experiment: the merged %s journals hold %d distinct runs, but the campaign has %d — a shard ran outside the campaign's grid",
				exp, n, runs)
		}
	}
	return res, nil
}
