package journal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriterConcurrentSenders is the -race stress on the batched
// writer: many goroutines appending records concurrently — including a
// concurrent Close racing the tail of the senders — must produce a
// journal whose complete records are exactly the sent ones.
func TestWriterConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 400
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				rec := Record{
					Experiment: "E1",
					Version:    s,
					ErrIdx:     i,
					Seed:       int64(s*perSender + i),
					ByTest:     map[int]int{1: i},
				}
				if err := w.Run(rec); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("clean concurrent journal flagged truncated")
	}
	if len(log.Runs) != senders*perSender {
		t.Fatalf("got %d runs, want %d", len(log.Runs), senders*perSender)
	}
	seen := make(map[Key]Record, len(log.Runs))
	for _, r := range log.Runs {
		if _, dup := seen[r.Key()]; dup {
			t.Fatalf("record %+v appears twice", r.Key())
		}
		seen[r.Key()] = r
		if want := int64(r.Version*perSender + r.ErrIdx); r.Seed != want {
			t.Fatalf("record %+v carries seed %d, want %d (batching interleaved lines)", r.Key(), r.Seed, want)
		}
	}
}

// TestWriterSendAfterCloseRace checks that senders racing Close get a
// clean "write after close" error instead of a panic on a closed
// channel.
func TestWriterSendAfterCloseRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Errors are expected once Close wins the race; the test is
				// that this never panics and the writer never corrupts.
				_ = w.Run(Record{Experiment: "E1", ErrIdx: i})
			}
		}()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := Load(path); err != nil {
		t.Fatalf("journal unreadable after racing close: %v", err)
	}
}

// TestLoadToleratesBatchCutMidWrite simulates a kill that lands inside
// a coalesced batch write: the file ends mid-record, but every
// complete line of the batch's prefix must survive. This is the
// truncation contract the batched writer keeps — batches are whole
// lines concatenated, so a cut can only split the final line.
func TestLoadToleratesBatchCutMidWrite(t *testing.T) {
	const runs = 50
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Header(Header{Experiment: "E1", Total: runs}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if err := w.Run(Record{Experiment: "E1", ErrIdx: i, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the file mid-way through its final record, as a kill inside
	// the batch's write syscall would.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(full) - 12
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	log, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("batch cut not flagged truncated")
	}
	if len(log.Runs) != runs-1 {
		t.Fatalf("got %d runs after the cut, want %d complete ones", len(log.Runs), runs-1)
	}
	for i, r := range log.Runs {
		if r.ErrIdx != i {
			t.Fatalf("run %d has ErrIdx %d; the complete prefix must survive in order", i, r.ErrIdx)
		}
	}
}
