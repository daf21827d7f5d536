package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
)

// TestPartitionQueuesContiguous checks the queue partition: every batch
// lands in exactly one queue, queues are contiguous blocks in the
// original (case-major) order, and sizes differ by at most one.
func TestPartitionQueuesContiguous(t *testing.T) {
	batches := make([]batch, 10)
	for i := range batches {
		batches[i].caseIdx = i
	}
	queues := partitionQueues(batches, 4)
	if len(queues) != 4 {
		t.Fatalf("got %d queues, want 4", len(queues))
	}
	next := 0
	min, max := len(batches), 0
	for w, q := range queues {
		if n := len(q.items); n < min {
			min = n
		} else if n > max {
			max = n
		}
		for _, b := range q.items {
			if b.caseIdx != next {
				t.Fatalf("queue %d holds batch %d, want %d (partition not contiguous)", w, b.caseIdx, next)
			}
			next++
		}
	}
	if next != len(batches) {
		t.Fatalf("queues cover %d of %d batches", next, len(batches))
	}
	if max-min > 1 {
		t.Fatalf("queue sizes spread %d..%d; want near-equal", min, max)
	}
}

// TestNextBatchSteals checks the steal path: a worker whose own queue
// is empty claims the stragglers of loaded queues, and claims are
// flagged as stolen.
func TestNextBatchSteals(t *testing.T) {
	batches := make([]batch, 3)
	for i := range batches {
		batches[i].caseIdx = i
	}
	// Worker 1's queue is empty: 3 batches over 2 workers gives worker 0
	// two, worker 1 one — drain worker 1's own first.
	queues := partitionQueues(batches, 2)
	if b, ok, stole := nextItem(queues, 1); !ok || stole {
		t.Fatalf("own-queue claim: ok=%v stole=%v batch=%d", ok, stole, b.caseIdx)
	}
	for i := 0; i < 2; i++ {
		b, ok, stole := nextItem(queues, 1)
		if !ok || !stole {
			t.Fatalf("steal %d: ok=%v stole=%v batch=%d", i, ok, stole, b.caseIdx)
		}
	}
	if _, ok, _ := nextItem(queues, 1); ok {
		t.Fatal("claimed a batch from fully drained queues")
	}
}

// TestWorkQueueConcurrentClaims is the -race stress on the lock-free
// cursor: many workers hammering take/steal must claim every batch
// exactly once.
func TestWorkQueueConcurrentClaims(t *testing.T) {
	const nBatches, nWorkers = 512, 8
	batches := make([]batch, nBatches)
	for i := range batches {
		batches[i].caseIdx = i
	}
	queues := partitionQueues(batches, nWorkers)
	var mu sync.Mutex
	claims := make(map[int]int, nBatches)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok, _ := nextItem(queues, w)
				if !ok {
					return
				}
				mu.Lock()
				claims[b.caseIdx]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(claims) != nBatches {
		t.Fatalf("claimed %d distinct batches, want %d", len(claims), nBatches)
	}
	for i, n := range claims {
		if n != 1 {
			t.Fatalf("batch %d claimed %d times", i, n)
		}
	}
}

// intWorker is a fake Dispatch worker over int items: serve decides
// what each item emits or returns, and Stats reports the served count.
type intWorker struct {
	serve  func(item int, emit func(int) bool) error
	served int
}

func (w *intWorker) Serve(item int, emit func(int) bool) error {
	w.served++
	return w.serve(item, emit)
}

func (w *intWorker) Stats() inject.RunnerStats { return inject.RunnerStats{Errors: w.served} }

func intItems(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

// TestDispatchWorkerErrorCancels: the first Serve error cancels the
// pool long before every item is served, and surfaces as "run failed".
func TestDispatchWorkerErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	items := intItems(1000)
	var served atomic.Int64
	newWorker := func() Worker[int, int] {
		return &intWorker{serve: func(item int, emit func(int) bool) error {
			served.Add(1)
			if item == 0 {
				return boom
			}
			emit(item)
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	_, err := Dispatch(Pool{Workers: 4}, items, newWorker, func(int) error { return nil })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "run failed") {
		t.Fatalf("err = %v, want a run failure wrapping boom", err)
	}
	if n := served.Load(); n >= int64(len(items))/10 {
		t.Errorf("served %d of %d items after the first error — the pool drained instead of canceling", n, len(items))
	}
}

// TestDispatchCollectErrorFirst: a collect error takes precedence over a
// worker error, and no unit reaches collect after it failed.
func TestDispatchCollectErrorFirst(t *testing.T) {
	errCollect := errors.New("journal full")
	errWorker := errors.New("worker broke")
	failed := make(chan struct{})
	// Worker 0 serves items 0-2 and fails once collect has failed on
	// its unit 2; worker 1 emits unit 3 until the pool is canceled.
	newWorker := func() Worker[int, int] {
		return &intWorker{serve: func(item int, emit func(int) bool) error {
			if item == 3 {
				for emit(item) {
				}
				return nil
			}
			emit(item)
			if item == 2 {
				<-failed
				return errWorker
			}
			return nil
		}}
	}
	var after int
	collect := func(u int) error {
		select {
		case <-failed:
			after++
			return nil
		default:
		}
		if u == 2 {
			close(failed)
			return errCollect
		}
		return nil
	}
	_, err := Dispatch(Pool{Workers: 2}, []int{0, 1, 2, 3}, newWorker, collect)
	if !errors.Is(err, errCollect) || errors.Is(err, errWorker) {
		t.Fatalf("err = %v, want the collect error", err)
	}
	if after > 0 {
		t.Errorf("collect was called %d times after it failed", after)
	}
}

// TestDispatchParentContext: a pre-canceled parent context reports an
// interruption the caller can match.
func TestDispatchParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newWorker := func() Worker[int, int] {
		return &intWorker{serve: func(item int, emit func(int) bool) error {
			emit(item)
			return nil
		}}
	}
	_, err := Dispatch(Pool{Context: ctx, Workers: 2}, intItems(10), newWorker, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDispatchAccounting: per-worker runs add up to the collected
// units, runner stats fold across workers, and progress ends at Total.
func TestDispatchAccounting(t *testing.T) {
	const workers, resumed = 4, 5
	items := intItems(100)
	units := 0
	for _, i := range items {
		units += i%3 + 1
	}
	newWorker := func() Worker[int, int] {
		return &intWorker{serve: func(item int, emit func(int) bool) error {
			for k := 0; k <= item%3; k++ {
				if !emit(item) {
					return nil
				}
			}
			return nil
		}}
	}
	collected := 0
	var last journal.ProgressEvent
	pool := Pool{
		Workers:    workers,
		Experiment: "X",
		Runner:     "fake",
		Resumed:    resumed,
		Total:      resumed + units,
		Progress:   func(ev journal.ProgressEvent) { last = ev },
	}
	m, err := Dispatch(pool, items, newWorker, func(int) error { collected++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if collected != units || m.Runs != units {
		t.Errorf("collected %d units, metrics.Runs = %d, want %d", collected, m.Runs, units)
	}
	if len(m.Workers) != workers {
		t.Fatalf("metrics report %d workers, want %d", len(m.Workers), workers)
	}
	sum := 0
	for _, wm := range m.Workers {
		sum += wm.Runs
	}
	if sum != m.Runs {
		t.Errorf("per-worker runs sum to %d, metrics.Runs = %d", sum, m.Runs)
	}
	if m.Errors != len(items) {
		t.Errorf("folded runner stats served %d items, want %d", m.Errors, len(items))
	}
	if m.Resumed != resumed || m.Experiment != "X" || m.Runner != "fake" {
		t.Errorf("metrics labels = %q/%q resumed %d", m.Experiment, m.Runner, m.Resumed)
	}
	if last.Completed != pool.Total || last.Resumed != resumed {
		t.Errorf("last progress event %+v, want completed %d of %d", last, pool.Total, pool.Total)
	}
}

// runAtWorkers runs one campaign at a given worker count and returns
// its rendered tables, journal records and metrics.
func runAtWorkers(t *testing.T, exp string, workers int, mode inject.Mode,
	run func(Config) (interface{ renderTables() []string }, journal.Metrics, error)) matrixRow {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg, w, err := equivalenceConfig(31, path, mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	res, metrics, err := run(cfg)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s campaign at %d workers: %v", mode, workers, err)
	}
	if got := len(metrics.Workers); got != workers {
		t.Fatalf("metrics report %d workers, want %d", got, workers)
	}
	total := 0
	for _, wm := range metrics.Workers {
		total += wm.Runs
	}
	if total != metrics.Runs {
		t.Fatalf("per-worker runs sum to %d, metrics.Runs = %d", total, metrics.Runs)
	}
	return matrixRow{mode: mode, tables: res.renderTables(), records: loadRecords(t, path, exp)}
}

// TestSchedulerWorkerCountEquivalence is the parallel-scheduler
// acceptance theorem: the same campaign dispatched at 1 and at 8
// workers — per-worker queues, stealing, shared profile cache, shared
// memo merges in nondeterministic order — renders byte-identical
// tables and journals identical per-run outcomes. E1 exercises the
// snapshot engine across every version; E2 under the memo runner
// exercises liveness pruning, cross-worker memoization (the E2 sample
// draws duplicates) and intra-case chunking.
func TestSchedulerWorkerCountEquivalence(t *testing.T) {
	runE1 := func(cfg Config) (interface{ renderTables() []string }, journal.Metrics, error) {
		r, err := RunE1(cfg)
		if err != nil {
			return nil, journal.Metrics{}, err
		}
		return e1Tables{r}, r.Metrics, nil
	}
	runE2 := func(cfg Config) (interface{ renderTables() []string }, journal.Metrics, error) {
		r, err := RunE2(cfg)
		if err != nil {
			return nil, journal.Metrics{}, err
		}
		return e2Tables{r}, r.Metrics, nil
	}

	t.Run("E1-snapshot", func(t *testing.T) {
		one := runAtWorkers(t, ExperimentE1, 1, inject.ModeSnapshot, runE1)
		eight := runAtWorkers(t, ExperimentE1, 8, inject.ModeSnapshot, runE1)
		for i := range one.tables {
			if one.tables[i] != eight.tables[i] {
				t.Errorf("table %d differs between 1 and 8 workers:\n8 workers:\n%s\n1 worker:\n%s",
					i, eight.tables[i], one.tables[i])
			}
		}
		diffRecords(t, "8-workers", eight.records, one.records)
	})
	t.Run("E2-memo", func(t *testing.T) {
		one := runAtWorkers(t, ExperimentE2, 1, inject.ModeMemo, runE2)
		eight := runAtWorkers(t, ExperimentE2, 8, inject.ModeMemo, runE2)
		for i := range one.tables {
			if one.tables[i] != eight.tables[i] {
				t.Errorf("table %d differs between 1 and 8 workers:\n8 workers:\n%s\n1 worker:\n%s",
					i, eight.tables[i], one.tables[i])
			}
		}
		diffRecords(t, "8-workers", eight.records, one.records)
	})
}
