package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/target"
)

// This file is the parallel work-stealing scheduler of every sweep over
// the (test case × error-position) grid: Dispatch is how the campaigns'
// batches and the optimizer's probe chunks reach the worker pool.
//
// Batches are partitioned upfront into per-worker queues in contiguous
// case-major blocks, so a worker mostly stays on few test cases and its
// per-case runners (snapshot engines, memo runners) are reused across
// batches. Each queue is an immutable batch slice with an atomic
// cursor: claiming a batch is one compare-and-swap, with no locks and
// no channel hops. A worker that drains its own queue steals from the
// other queues with the same CAS — idle workers finish the stragglers
// of loaded ones, so a skewed grid (memo batches vary from
// microseconds for all-pruned chunks to seconds for all-live ones)
// still saturates the pool.
//
// The expensive per-case state is shared, not stolen with the batch: an
// inject.ProfileCache computes each case's nominal-prefix snapshot (and
// for memo mode the full-window nominal profile + liveness map) exactly
// once per campaign, and every worker's runner is built from that
// read-only profile. Memoized outcomes cross workers through a
// per-case inject.SharedMemo, merged at batch barriers.
//
// Concurrency contract, structure by structure: workQueue claims are a
// single CAS on an atomic cursor over an immutable batch slice (no
// locks, no ABA — the cursor only advances); CaseProfiles are immutable
// after construction and shared read-only; SharedMemo reads are one
// atomic load of an immutable map, writes merge at batch barriers under
// a short mutex; journal appends flow through the writer's single
// drainer goroutine, which coalesces queued lines into 64 KiB
// line-aligned batches. None of this may change a cell of the paper's
// Tables 7-9: per-run seeds depend only on the test case (not the
// worker), the §3.4 protocol's aggregates are order-independent
// integer totals, and journal comparisons key on run coordinates.
// TestWorkQueueConcurrentClaims gates exactly-once batch claims under
// contention, TestSchedulerWorkerCountEquivalence pins 1-worker vs
// 8-worker campaigns to byte-identical tables and record sets, and the
// TestDispatch* tests pin cancellation, error precedence and metrics.

// Worker serves work items on one goroutine of a Dispatch pool. The
// campaign's worker serves version-run batches, the optimizer's lattice
// sweep (internal/optimize) serves probe chunks over the same
// (case × error) grid.
type Worker[T, O any] interface {
	// Serve serves one item, handing every finished unit to emit. emit
	// reports false once the pool is canceled; Serve then returns nil.
	Serve(item T, emit func(O) bool) error
	// Stats folds the worker's runner statistics. Dispatch calls it
	// once, after the worker has exited.
	Stats() inject.RunnerStats
}

// Pool names one dispatch for its progress events and metrics, and
// sizes and cancels its worker pool.
type Pool struct {
	// Context, when non-nil, cancels the dispatch.
	Context context.Context
	// Workers is the number of worker goroutines (at least 1).
	Workers int
	// Experiment and Runner label the progress events and metrics.
	Experiment string
	Runner     string
	// Resumed counts the units replayed from a journal before the
	// dispatch; Total counts every unit of the sweep, Resumed included.
	Resumed int
	Total   int
	// Progress, when non-nil, is called after every collected unit.
	Progress func(journal.ProgressEvent)
}

// Dispatch is the grid dispatcher of every sweep: it serves items on
// p.Workers goroutines, each with its own newWorker() state, and hands
// every unit they emit to collect on the calling goroutine, which also
// reports progress. Items are partitioned into per-worker contiguous
// queues with stealing (see the file comment). The first Serve error
// cancels the pool, and so does the first collect error, after which
// collect is not called again. The returned error is, in that order of
// precedence, the collect error, the worker error ("run failed"), or
// the parent context's error, returned unwrapped so the caller can say
// what was interrupted. The metrics cover the collected units and fold
// in the workers' runner statistics.
func Dispatch[T, O any](p Pool, items []T, newWorker func() Worker[T, O], collect func(O) error) (journal.Metrics, error) {
	parent := p.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	queues := partitionQueues(items, p.Workers)
	workers := make([]Worker[T, O], p.Workers)
	out := make(chan O)
	errCh := make(chan error, 1)
	busy := make([]time.Duration, p.Workers)
	runs := make([]int, p.Workers)
	stolen := make([]int, p.Workers)
	var wg sync.WaitGroup
	for w := range workers {
		w := w
		workers[w] = newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit := func(o O) bool {
				select {
				case out <- o:
					runs[w]++
					return true
				case <-ctx.Done():
					return false
				}
			}
			for ctx.Err() == nil {
				item, ok, stole := nextItem(queues, w)
				if !ok {
					return
				}
				if stole {
					stolen[w]++
				}
				began := time.Now()
				err := workers[w].Serve(item, emit)
				busy[w] += time.Since(began)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					cancel()
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	start := time.Now()
	completed := p.Resumed
	var collectErr error
	for o := range out {
		if collectErr != nil {
			continue
		}
		if err := collect(o); err != nil {
			collectErr = err
			cancel()
			continue
		}
		completed++
		if p.Progress != nil {
			ev := journal.ProgressEvent{
				Experiment: p.Experiment,
				Completed:  completed,
				Resumed:    p.Resumed,
				Total:      p.Total,
				Elapsed:    time.Since(start),
			}
			if live := completed - p.Resumed; ev.Elapsed > 0 && live > 0 {
				ev.RunsPerSec = float64(live) / ev.Elapsed.Seconds()
				ev.ETA = time.Duration(float64(p.Total-completed) / ev.RunsPerSec * float64(time.Second))
			}
			p.Progress(ev)
		}
	}

	wall := time.Since(start)
	metrics := journal.Metrics{
		Experiment: p.Experiment,
		Runs:       completed - p.Resumed,
		Resumed:    p.Resumed,
		WallMs:     wall.Milliseconds(),
		Runner:     p.Runner,
	}
	if wall > 0 {
		metrics.RunsPerSec = float64(metrics.Runs) / wall.Seconds()
	}
	var st inject.RunnerStats
	for w, wk := range workers {
		st = st.Add(wk.Stats())
		wm := journal.WorkerMetrics{Worker: w, Runs: runs[w], BusyMs: busy[w].Milliseconds(), Stolen: stolen[w]}
		if wall > 0 {
			wm.Utilization = float64(busy[w]) / float64(wall)
		}
		metrics.Workers = append(metrics.Workers, wm)
	}
	metrics.Errors = st.Errors
	metrics.Simulated = st.Simulated
	metrics.Pruned = st.Pruned
	metrics.MemoHits = st.MemoHits
	metrics.PruneRate = st.PruneRate()
	metrics.MemoHitRate = st.MemoHitRate()

	switch {
	case collectErr != nil:
		return metrics, collectErr
	case len(errCh) > 0:
		return metrics, fmt.Errorf("experiment: run failed: %w", <-errCh)
	default:
		return metrics, parent.Err()
	}
}

// workQueue is one worker's share of a work-item list. take claims the
// next item lock-free; the same method is the steal path when another
// worker calls it.
type workQueue[T any] struct {
	items []T
	next  atomic.Int64
}

// take claims the queue's next item, or reports an empty queue.
func (q *workQueue[T]) take() (T, bool) {
	for {
		i := q.next.Load()
		if i >= int64(len(q.items)) {
			var zero T
			return zero, false
		}
		if q.next.CompareAndSwap(i, i+1) {
			return q.items[i], true
		}
	}
}

// partitionQueues splits the item list into near-equal contiguous
// blocks, one per worker. Contiguity preserves the case-major item
// order inside each queue, which is what makes per-case runner reuse
// effective.
func partitionQueues[T any](items []T, workers int) []*workQueue[T] {
	queues := make([]*workQueue[T], workers)
	per := len(items) / workers
	rem := len(items) % workers
	lo := 0
	for w := 0; w < workers; w++ {
		n := per
		if w < rem {
			n++
		}
		queues[w] = &workQueue[T]{items: items[lo : lo+n]}
		lo += n
	}
	return queues
}

// nextItem serves worker w: its own queue first, then a steal sweep
// over the other queues. stole reports whether the item came from
// another worker's queue.
func nextItem[T any](queues []*workQueue[T], w int) (item T, ok, stole bool) {
	if item, ok = queues[w].take(); ok {
		return item, true, false
	}
	for off := 1; off < len(queues); off++ {
		if item, ok = queues[(w+off)%len(queues)].take(); ok {
			return item, true, true
		}
	}
	var zero T
	return zero, false, false
}

// workerRunners is one worker's runner state: the per-case runners it
// has built so far (reused across every batch of the same case), the
// shared campaign caches they are built from, and the scratch slices
// of the batch loop.
type workerRunners struct {
	cfg    Config
	mode   inject.Mode
	cache  *inject.ProfileCache
	memos  map[int]*inject.SharedMemo
	byCase map[int]inject.Runner

	versions []target.Version
	results  []inject.RunResult
}

func newWorkerRunners(cfg Config, mode inject.Mode, cache *inject.ProfileCache, memos map[int]*inject.SharedMemo) *workerRunners {
	return &workerRunners{
		cfg:    cfg,
		mode:   mode,
		cache:  cache,
		memos:  memos,
		byCase: make(map[int]inject.Runner),
	}
}

// runner returns the worker's runner for b's test case, building it on
// first use. Snapshot engines fast-forward by restoring the shared
// profile snapshot instead of re-simulating the nominal prefix; memo
// runners additionally share the full nominal profile, the liveness
// map and the case's outcome memo.
func (wr *workerRunners) runner(b batch) (inject.Runner, error) {
	if r, ok := wr.byCase[b.caseIdx]; ok {
		return r, nil
	}
	rc := inject.RunConfig{
		TestCase:      b.tc,
		Policy:        wr.cfg.Policy,
		ObservationMs: wr.cfg.ObservationMs,
		Seed:          runSeed(wr.cfg.Seed, b.caseIdx),
		Recovery:      wr.cfg.Recovery,
		Placement:     wr.cfg.Placement,
	}
	var r inject.Runner
	var err error
	switch wr.mode {
	case inject.ModeSnapshot:
		var p *inject.CaseProfile
		if p, err = wr.cache.Get(b.caseIdx, rc, false); err == nil {
			r, err = inject.NewEngineFromProfile(p)
		}
	case inject.ModeMemo:
		var p *inject.CaseProfile
		if p, err = wr.cache.Get(b.caseIdx, rc, true); err == nil {
			r, err = inject.NewMemoRunnerFromProfile(p, wr.memos[b.caseIdx])
		}
	default:
		r, err = inject.NewRunner(wr.mode, rc)
	}
	if err != nil {
		return nil, err
	}
	wr.byCase[b.caseIdx] = r
	return r, nil
}

// Stats folds the per-case runners' serving statistics; Dispatch calls
// it once after the worker exits, so no per-draw synchronization is
// needed.
func (wr *workerRunners) Stats() inject.RunnerStats {
	var st inject.RunnerStats
	for _, r := range wr.byCase {
		if sr, ok := r.(inject.StatsReporter); ok {
			st = st.Add(sr.Stats())
		}
	}
	return st
}

// Serve serves one batch through the worker's per-case runner: one
// RunError per error with every version the batch's jobs request. At
// the batch barrier the runner's freshly memoized outcomes are merged
// into the case's shared memo.
func (wr *workerRunners) Serve(b batch, emit func(outcome) bool) error {
	runner, err := wr.runner(b)
	if err != nil {
		return err
	}
	for i := 0; i < len(b.jobs); {
		j := i
		for j < len(b.jobs) && b.jobs[j].errIdx == b.jobs[i].errIdx {
			j++
		}
		group := b.jobs[i:j]
		wr.versions = wr.versions[:0]
		for _, g := range group {
			wr.versions = append(wr.versions, g.version)
		}
		if cap(wr.results) < len(group) {
			wr.results = make([]inject.RunResult, len(group))
		}
		results := wr.results[:len(group)]
		// Zeroed slots, not reused ones: emitted results are retained
		// by the collector, so the runner must not recycle their maps.
		for k := range results {
			results[k] = inject.RunResult{}
		}
		if err := runner.RunError(group[0].err, wr.versions, results); err != nil {
			return err
		}
		for gi, g := range group {
			if !emit(outcome{job: g, res: results[gi]}) {
				return nil
			}
		}
		i = j
	}
	if f, ok := runner.(interface{ FlushShared() }); ok {
		f.FlushShared()
	}
	return nil
}
