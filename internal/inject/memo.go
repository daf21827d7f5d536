package inject

import (
	"fmt"

	"easig/internal/core"
	"easig/internal/memory"
	"easig/internal/target"
)

// MemoRunner is the pruning and memoizing Runner: it wraps the snapshot
// Engine of one (test case, injection schedule) with two layers that
// serve errors without simulating them.
//
//  1. Liveness pruning. On first use the runner profiles the test case
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
	live  *Liveness
	baseM [][]byte // snapshot-time memory bytes, for the delta hash
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

// NewMemoRunner builds the runner for one test case described by cfg.
// Like NewEngine, it requires detection-only runs; cfg.Error and
// cfg.Version are ignored. The liveness profile is computed lazily on
// the first RunError, so construction stays as cheap as NewEngine.
func NewMemoRunner(cfg RunConfig) (*MemoRunner, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &MemoRunner{
		eng:   eng,
		baseM: eng.mem.Snapshot(),
		memo:  make(map[uint64]memoEntry),
	}, nil
}

// Stats implements StatsReporter. Simulated counts the errors the
// wrapped engine actually profiled (the one nominal liveness profile is
// not counted as an error).
func (r *MemoRunner) Stats() RunnerStats { return r.stats }

// profile runs the one-time nominal liveness profile.
func (r *MemoRunner) profile() error {
	live := NewLiveness(r.eng.mem.Regions())
	if err := r.eng.ProfileNominal(live, live.MarkInjection); err != nil {
		return err
	}
	r.live = live
	return nil
}

// stateHash hashes err's post-injection state delta against the
// runner's snapshot; see stateDeltaHash.
func (r *MemoRunner) stateHash(err Error) (uint64, error) {
	return stateDeltaHash(r.eng.mem.Regions(), r.baseM, err)
}

// stateDeltaHash is the FNV-1a hash of a post-injection state delta:
// which byte differs from the case's snapshot (baseM, indexed like
// regions), what it now holds, and the mask the periodic schedule keeps
// toggling. Two errors with equal hashes corrupt the snapshot into the
// same state and re-corrupt it on the same schedule, so their runs are
// the same run. The MemoRunner and the optimizer's Probe share this
// memo key.
func stateDeltaHash(regions []memory.RegionSpec, baseM [][]byte, err Error) (uint64, error) {
	var base byte
	found := false
	for i, spec := range regions {
		if err.Addr >= spec.Base && uint32(err.Addr) < spec.End() {
			base = baseM[i][err.Addr-spec.Base]
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("inject: memo hash: address 0x%04x outside every region", err.Addr)
	}
	mask := byte(1) << err.Bit
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range [4]byte{byte(err.Addr >> 8), byte(err.Addr), base ^ mask, mask} {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}

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
	if r.live == nil {
		if perr := r.profile(); perr != nil {
			return perr
		}
	}
	r.stats.Errors++

	if !r.live.Live(err.Addr) {
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

	h, herr := r.stateHash(err)
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
