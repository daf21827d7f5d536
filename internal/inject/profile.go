package inject

import (
	"fmt"
	"sync"
	"sync/atomic"

	"easig/internal/target"
)

// CaseProfile is the shared, read-only execution profile of one
// (test case, injection schedule, seed): everything a Runner needs that
// is a pure function of the case rather than of the error under
// injection. The parallel campaign scheduler computes it once per test
// case and hands it to every worker and every engine mode, instead of
// letting each worker's runner re-simulate it:
//
//   - the nominal-prefix snapshot at the first injection time plus
//     everything both nodes recorded up to it (the snapshot engine's
//     starting point; without the cache a case split across N workers
//     would simulate it N times);
//   - optionally (the "full" stage) the full-observation-window nominal
//     profile and the def/use liveness map, which the memo runner and
//     the memo probe use to prove dead-at-injection faults benign and
//     to read their outcomes off the nominal run with zero simulation.
//     Before the cache this was the single most expensive per-runner
//     cost — a complete fault-free simulation of the whole window — and
//     it once forced the scheduler to run each case as one indivisible
//     batch.
//
// A CaseProfile is immutable after construction. Engines built from it
// via NewEngineFromProfile share its buffers read-only (Restore only
// reads from the snapshot, rewind only copies from the start state, and
// the nominal profile is only consulted, never written), which is what makes one profile safe for any number of
// concurrent workers.
type CaseProfile struct {
	cfg   RunConfig
	base  target.SystemState
	start *runState

	// Full-stage fields; nil until the full profile is computed.
	nominal *nominalProfile
	live    *Liveness
}

// profileEntry is one cache slot. The two stages are guarded by
// separate sync.Onces so snapshot-mode campaigns never pay for the
// full-window profile that only the memo runner needs.
type profileEntry struct {
	prefixOnce sync.Once
	fullOnce   sync.Once
	prefixErr  error
	fullErr    error
	eng        *Engine
	p          *CaseProfile
}

// ProfileCache shares CaseProfiles across the workers of one campaign.
// Keys are caller-chosen (the campaign uses the test-case index); the
// caller guarantees that every Get for a key passes an equivalent
// RunConfig. Get is safe for concurrent use: the first caller of a key
// computes the stage, everyone else blocks on the same sync.Once and
// reuses the result.
//
// Sharing cannot change a campaign's readouts: a profile is a pure
// function of (test case, injection schedule, seed) — the same §3.4
// determinism that makes the paper's Tables 7-9 resumable makes it
// indifferent whether one runner or eight share the computation (the
// seed contract in PERFORMANCE.md "The seed contract that makes
// sharing sound"). TestProfileCacheComputesOnce gates the compute-once
// contract under concurrent access, and the engine-equivalence suites
// (TestEngineFromProfileMatchesEngine and
// TestMemoRunnerFromProfileMatchesEngine, listed under PERFORMANCE.md
// "The proof obligations, as tests") pin profile-built runners
// byte-identical to self-computed ones.
type ProfileCache struct {
	mu      sync.Mutex
	entries map[int]*profileEntry
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{entries: make(map[int]*profileEntry)}
}

// Get returns the profile for key, computing the missing stages at
// most once per cache. With full=false only the nominal-prefix
// snapshot is guaranteed (what a snapshot Engine needs); with
// full=true the full-window nominal profile and liveness map are
// computed too (what a MemoRunner needs).
func (c *ProfileCache) Get(key int, cfg RunConfig, full bool) (*CaseProfile, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &profileEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.prefixOnce.Do(func() { e.prefixErr = e.computePrefix(cfg) })
	if e.prefixErr != nil {
		return nil, e.prefixErr
	}
	if full {
		e.fullOnce.Do(func() { e.fullErr = e.computeFull() })
		if e.fullErr != nil {
			return nil, e.fullErr
		}
	}
	return e.p, nil
}

// computePrefix builds the stage-one profile: a throwaway engine
// simulates the nominal prefix, and its snapshot and start state become
// the CaseProfile's. The engine is retained for a later full stage.
func (e *profileEntry) computePrefix(cfg RunConfig) error {
	eng, err := NewEngine(cfg)
	if err != nil {
		return err
	}
	e.eng = eng
	e.p = &CaseProfile{cfg: eng.cfg, base: eng.base, start: eng.start}
	return nil
}

// computeFull runs the stage-two full-window nominal profile with the
// liveness pass armed, then drops the throwaway engine.
func (e *profileEntry) computeFull() error {
	live := NewLiveness(e.eng.mem)
	if err := e.eng.ProfileNominal(live, live.MarkInjection); err != nil {
		return err
	}
	e.p.nominal = e.eng.nominal
	e.p.live = live
	e.eng = nil
	return nil
}

// newCaseProfile computes a private CaseProfile, the stages a
// self-contained MemoRunner or Probe needs without a shared cache.
func newCaseProfile(cfg RunConfig, full bool) (*CaseProfile, error) {
	e := &profileEntry{}
	if err := e.computePrefix(cfg); err != nil {
		return nil, err
	}
	if full {
		if err := e.computeFull(); err != nil {
			return nil, err
		}
	}
	return e.p, nil
}

// NewEngineFromProfile builds a snapshot Engine for the profile's test
// case without re-simulating the nominal prefix: a fresh system is
// built from the same configuration and fast-forwarded by restoring
// the shared snapshot. The engine shares the profile's buffers
// read-only, including the full stage when it has been computed, so
// any number of engines (one per campaign worker) can be built from
// one profile concurrently.
func NewEngineFromProfile(p *CaseProfile) (*Engine, error) {
	e, err := newEngineShell(p.cfg)
	if err != nil {
		return nil, err
	}
	e.base, e.start = p.base, p.start
	e.nominal, e.live = p.nominal, p.live
	if err := e.rewind(); err != nil {
		return nil, fmt.Errorf("inject: fast-forwarding from shared profile: %w", err)
	}
	return e, nil
}

// NewMemoRunnerFromProfile builds a memo runner whose liveness map,
// nominal profile and snapshot all come from the shared profile (full
// stage required) instead of a private full-window simulation. shared,
// when non-nil, lets the runner publish and consume memoized outcomes
// across the workers of the case; pass nil for a private memo.
func NewMemoRunnerFromProfile(p *CaseProfile, shared *SharedMemo) (*MemoRunner, error) {
	if p.live == nil {
		return nil, fmt.Errorf("inject: memo runner needs the full profile stage (ProfileCache.Get with full=true)")
	}
	eng, err := NewEngineFromProfile(p)
	if err != nil {
		return nil, err
	}
	return &MemoRunner{eng: eng, memo: make(map[uint64]memoEntry), shared: shared}, nil
}

// SharedMemo publishes outcome-memo entries across the runners of one
// test case. Reads are lock-free — the table is an immutable map
// behind an atomic pointer, so the per-draw lookup costs one atomic
// load — and writes are batched: each runner accumulates entries in
// its private table and merges them at batch barriers via
// MemoRunner.FlushShared, which rebuilds and republishes the map under
// a short mutex. Merging at barriers instead of locking per draw keeps
// the memo off the hot path; the cost is that a duplicate draw served
// on two workers inside the same batch window may be simulated twice,
// which affects throughput accounting only — identical state deltas
// produce identical results, so the §3.4 Table 9 cells and the
// exhaustive census's measured Pdetect are unchanged (the memo-table
// soundness argument in PERFORMANCE.md "The memo table").
// TestSharedMemoCrossRunner gates the cross-runner path: an outcome
// memoized by one runner must be served identically through another
// runner sharing the memo.
type SharedMemo struct {
	mu sync.Mutex
	v  atomic.Pointer[map[uint64]memoEntry]
}

// lookup consults the published table.
func (s *SharedMemo) lookup(h uint64) (memoEntry, bool) {
	m := s.v.Load()
	if m == nil {
		return memoEntry{}, false
	}
	e, ok := (*m)[h]
	return e, ok
}

// Len reports the number of published entries (tests and metrics).
func (s *SharedMemo) Len() int {
	m := s.v.Load()
	if m == nil {
		return 0
	}
	return len(*m)
}

// merge republishes the table extended with every entry of local.
// Existing keys win: both sides memoized the same run, and keeping the
// published entry means concurrent readers only ever see one result
// per key.
func (s *SharedMemo) merge(local map[uint64]memoEntry) {
	if len(local) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.v.Load()
	next := make(map[uint64]memoEntry, lenOf(old)+len(local))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	for k, v := range local {
		if _, ok := next[k]; !ok {
			next[k] = v
		}
	}
	s.v.Store(&next)
}

func lenOf(m *map[uint64]memoEntry) int {
	if m == nil {
		return 0
	}
	return len(*m)
}
