package inject

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/target"
)

// MemoRunner is the pruning and memoizing Runner: it wraps the snapshot
// Engine of one (test case, injection schedule), built from the case's
// full profile stage, with two layers that serve errors without
// simulating them.
//
//  1. Liveness pruning. The full stage profiled the test case
//     fault-free over the full observation window with the def/use
//     Liveness pass armed. Errors whose byte is dead at every injection
//     time (never read between an injection epoch and the next store)
//     are provably benign — see the soundness argument on Liveness —
//     and their per-version results are derived from the cached nominal
//     profile with zero simulation.
//  2. Outcome memoization. For live errors, the post-injection state
//     delta against the case's snapshot — (address, post-flip byte,
//     flip mask) — is hashed; identical deltas under the identical
//     periodic schedule must produce identical trajectories, so repeat
//     faults (E2 samples with replacement) replay the memoized
//     per-version results.
//
// Everything else falls through to Engine.RunError. A MemoRunner is not
// safe for concurrent use; each campaign worker owns one.
type MemoRunner struct {
	eng   *Engine
	memo  map[uint64]memoEntry
	stats RunnerStats

	// shared, when non-nil, is the case-wide memo the parallel
	// scheduler hands every runner of the same test case: lookups fall
	// back to it lock-free, and FlushShared publishes this runner's
	// private entries into it at batch barriers.
	shared *SharedMemo
}

// memoEntry caches the derived results of one post-injection state
// delta for one version slice.
type memoEntry struct {
	versions []target.Version
	results  []RunResult
}

// NewMemoRunner builds the runner for one test case described by cfg,
// computing the case's full profile stage itself. Like NewEngine, it
// requires detection-only runs; cfg.Error and cfg.Version are ignored.
func NewMemoRunner(cfg RunConfig) (*MemoRunner, error) {
	p, err := newCaseProfile(cfg, true)
	if err != nil {
		return nil, err
	}
	return NewMemoRunnerFromProfile(p, nil)
}

// Stats implements StatsReporter. Simulated counts the errors the
// wrapped engine actually profiled (the one nominal liveness profile is
// not counted as an error).
func (r *MemoRunner) Stats() RunnerStats { return r.stats }

// sameVersions reports whether a memo entry was derived for the same
// version slice in the same order.
func sameVersions(a, b []target.Version) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunError implements Runner.
func (r *MemoRunner) RunError(err Error, versions []target.Version, out []RunResult) error {
	if len(out) != len(versions) {
		return fmt.Errorf("inject: memo runner needs len(out)=%d, got %d", len(versions), len(out))
	}
	r.stats.Errors++

	if r.eng.pruned(err) {
		for i, v := range versions {
			res, derr := r.eng.DeriveNominal(v)
			if derr != nil {
				return derr
			}
			out[i] = res
		}
		r.stats.Pruned++
		return nil
	}

	h, herr := r.eng.deltaHash(err)
	if herr != nil {
		return herr
	}
	entry, ok := r.memo[h]
	if !ok && r.shared != nil {
		entry, ok = r.shared.lookup(h)
	}
	if ok && sameVersions(entry.versions, versions) {
		serveMemo(out, entry.results)
		r.stats.MemoHits++
		return nil
	}

	if rerr := r.eng.RunError(err, versions, out); rerr != nil {
		return rerr
	}
	r.stats.Simulated++
	r.memo[h] = memoEntry{
		versions: append([]target.Version(nil), versions...),
		results:  cloneResults(out),
	}
	return nil
}

// serveMemo copies a memo entry's results into out. ByTest maps are
// cloned: the entry's maps may be shared across workers and must stay
// immutable, while the engine is allowed to recycle maps it finds in
// out on the next call.
func serveMemo(out, results []RunResult) {
	copy(out, results)
	for i := range out {
		if out[i].ByTest != nil {
			m := make(map[core.TestID]int, len(out[i].ByTest))
			for k, v := range out[i].ByTest {
				m[k] = v
			}
			out[i].ByTest = m
		}
	}
}

// cloneResults deep-copies results for a memo entry, detaching the
// ByTest maps from the caller's out slice (whose maps the engine may
// recycle later).
func cloneResults(out []RunResult) []RunResult {
	res := append([]RunResult(nil), out...)
	for i := range res {
		if res[i].ByTest != nil {
			m := make(map[core.TestID]int, len(res[i].ByTest))
			for k, v := range res[i].ByTest {
				m[k] = v
			}
			res[i].ByTest = m
		}
	}
	return res
}

// FlushShared publishes the runner's private memo entries into the
// case-wide shared memo. The scheduler calls it at batch barriers —
// merging there instead of locking per draw is what keeps the memo off
// the per-run hot path. A runner without a shared memo flushes to
// nowhere; the private table keeps serving its own duplicates either
// way.
func (r *MemoRunner) FlushShared() {
	if r.shared == nil || len(r.memo) == 0 {
		return
	}
	r.shared.merge(r.memo)
}
