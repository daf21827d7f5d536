package inject

import (
	"reflect"
	"sync"
	"testing"

	"easig/internal/physics"
	"easig/internal/target"
)

func profileTestConfig() RunConfig {
	return RunConfig{
		TestCase:      physics.TestCase{MassKg: 14000, VelocityMS: 55},
		ObservationMs: engineObsMs,
		Seed:          3,
	}
}

// TestEngineFromProfileMatchesEngine is the shared-profile soundness
// theorem: an engine fast-forwarded by restoring the cached snapshot
// must serve every error with results identical to an engine that
// simulated its own nominal prefix — otherwise the parallel scheduler
// would make tables depend on which worker built its runner first.
func TestEngineFromProfileMatchesEngine(t *testing.T) {
	cfg := profileTestConfig()
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewProfileCache()
	p, err := cache.Get(0, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}

	versions := target.Versions()
	want := make([]RunResult, len(versions))
	got := make([]RunResult, len(versions))
	for i, e := range BuildE1() {
		if i%7 != 0 {
			continue // a sample is plenty; each error is a full profile run
		}
		for k := range want {
			want[k], got[k] = RunResult{}, RunResult{}
		}
		if err := ref.RunError(e, versions, want); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunError(e, versions, got); err != nil {
			t.Fatal(err)
		}
		for vi := range versions {
			if !reflect.DeepEqual(got[vi], want[vi]) {
				t.Fatalf("error %s version %v: profile-built engine diverged\n got %+v\nwant %+v",
					e.ID, versions[vi], got[vi], want[vi])
			}
		}
	}
}

// TestProfileCacheComputesOnce checks the cache's contract under
// concurrency: many goroutines asking for the same case must get the
// same CaseProfile pointer, i.e. the prefix and full stages ran once.
func TestProfileCacheComputesOnce(t *testing.T) {
	cfg := profileTestConfig()
	cache := NewProfileCache()
	const n = 8
	ps := make([]*CaseProfile, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := cache.Get(0, cfg, i%2 == 0)
			if err != nil {
				t.Error(err)
				return
			}
			ps[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ps[i] != ps[0] {
			t.Fatalf("goroutine %d got a distinct profile %p != %p", i, ps[i], ps[0])
		}
	}
	if ps[0].live == nil {
		t.Fatal("full stage requested by half the goroutines but liveness map is nil")
	}
}

// TestMemoRunnerFromProfileMatchesEngine checks the memo runner built
// from a shared profile against a privately profiled engine across a
// mixed live/pruned error sample.
func TestMemoRunnerFromProfileMatchesEngine(t *testing.T) {
	cfg := profileTestConfig()
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewProfileCache()
	p, err := cache.Get(0, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMemoRunnerFromProfile(p, &SharedMemo{})
	if err != nil {
		t.Fatal(err)
	}

	versions := []target.Version{target.VersionAll}
	errs := BuildE2(E2Spec{RAM: 24, Stack: 8}, 5)
	want := make([]RunResult, 1)
	got := make([]RunResult, 1)
	for _, e := range errs {
		want[0], got[0] = RunResult{}, RunResult{}
		if err := ref.RunError(e, versions, want); err != nil {
			t.Fatal(err)
		}
		if err := mr.RunError(e, versions, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want[0]) {
			t.Fatalf("error %s: shared-profile memo runner diverged\n got %+v\nwant %+v", e.ID, got[0], want[0])
		}
	}
	st := mr.Stats()
	if st.Pruned == 0 {
		t.Errorf("no errors pruned — the shared liveness map is not in effect: %+v", st)
	}
	if st.Errors != len(errs) || st.Simulated+st.Pruned+st.MemoHits != st.Errors {
		t.Errorf("stats do not partition the error set: %+v", st)
	}
}

// TestSharedMemoCrossRunner checks the case-wide memo: a draw
// simulated by one worker's runner and flushed at the batch barrier
// must be served as a memo hit by another worker's runner, with
// identical results.
func TestSharedMemoCrossRunner(t *testing.T) {
	cfg := profileTestConfig()
	cache := NewProfileCache()
	p, err := cache.Get(0, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	shared := &SharedMemo{}
	a, err := NewMemoRunnerFromProfile(p, shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMemoRunnerFromProfile(p, shared)
	if err != nil {
		t.Fatal(err)
	}

	// A live error: pruned draws never reach the memo.
	var live Error
	found := false
	for _, e := range BuildExhaustive() {
		if p.live.Live(e.Addr) {
			live, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("no live error position in the exhaustive set")
	}

	versions := []target.Version{target.VersionAll}
	resA := make([]RunResult, 1)
	if err := a.RunError(live, versions, resA); err != nil {
		t.Fatal(err)
	}
	if shared.Len() != 0 {
		t.Fatalf("memo published before the batch barrier: %d entries", shared.Len())
	}
	a.FlushShared()
	if shared.Len() != 1 {
		t.Fatalf("flush published %d entries, want 1", shared.Len())
	}

	resB := make([]RunResult, 1)
	if err := b.RunError(live, versions, resB); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.MemoHits != 1 || st.Simulated != 0 {
		t.Fatalf("second runner did not hit the shared memo: %+v", st)
	}
	if !reflect.DeepEqual(resA[0], resB[0]) {
		t.Fatalf("shared memo hit diverged\n got %+v\nwant %+v", resB[0], resA[0])
	}
}
