package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// childEnv pins the children to two OS threads running Go code, the
// size of the machine the benchmark is calibrated on, so numbers stay
// comparable across hosts with more cores.
func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=2")
}

// lineWatch is a child's stderr sink: it keeps the text and timestamps
// the first line that starts with one of the ready prefixes.
type lineWatch struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	prefixes []string
	ready    time.Time
	readyCh  chan string // receives the ready line once; buffered
}

func newLineWatch(prefixes ...string) *lineWatch {
	return &lineWatch{prefixes: prefixes, readyCh: make(chan string, 1)}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.buf.Len()
	w.buf.Write(p)
	if !w.ready.IsZero() {
		return len(p), nil
	}
	// Scan the lines completed by this write; a line may have started
	// in an earlier one.
	b := w.buf.Bytes()
	from := bytes.LastIndexByte(b[:start], '\n') + 1
	for {
		end := bytes.IndexByte(b[from:], '\n')
		if end < 0 {
			break
		}
		line := string(b[from : from+end])
		for _, pre := range w.prefixes {
			if strings.HasPrefix(line, pre) {
				w.ready = now
				w.readyCh <- line
				return len(p), nil
			}
		}
		from += end + 1
	}
	return len(p), nil
}

func (w *lineWatch) readyAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ready
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// job is one finished CLI invocation.
type job struct {
	setup  time.Duration // spawn to the ready line
	wall   time.Duration // spawn to exit
	cpu    time.Duration // user + system time of the child
	rssMB  float64       // peak resident set size of the child
	stdout []byte
}

// runJob runs one batch CLI invocation to completion in dir. The ready
// line marks the end of set-up; a job that never prints one, or exits
// nonzero, is an error.
func runJob(dir, bin string, args []string, ready string) (job, error) {
	watch := newLineWatch(ready)
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = childEnv()
	cmd.Stdout = &stdout
	cmd.Stderr = watch
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		return job{}, err
	}
	rss := watchRSS(cmd.Process.Pid)
	err := cmd.Wait()
	exited := time.Now()
	peak := rss.peakMB()
	if err != nil {
		return job{}, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, tail(watch.String()))
	}
	r := watch.readyAt()
	if r.IsZero() {
		return job{}, fmt.Errorf("%s %s printed no %q line", filepath.Base(bin), strings.Join(args, " "), ready)
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return job{setup: r.Sub(spawned), wall: exited.Sub(spawned), cpu: cpu, rssMB: peak, stdout: stdout.Bytes()}, nil
}

// rssWatch follows a running child's peak resident set size by polling
// VmHWM in /proc/<pid>/status. The exit rusage cannot be used: Go starts
// children with vfork, and Linux carries the parent's high-water mark
// into the child's ru_maxrss at exec, so the benchmark's own size would
// be reported whenever it exceeds the child's. A peak reached in the
// last poll interval before exit is missed.
type rssWatch struct {
	stop, done chan struct{}
	kb         int64 // written by the polling goroutine only
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			w.sample(path)
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// sample reads VmHWM once; an exited child has none.
func (w *rssWatch) sample(path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		return
	}
	_, rest, ok := bytes.Cut(b, []byte("VmHWM:"))
	if !ok {
		return
	}
	f := strings.Fields(string(rest))
	if len(f) == 0 {
		return
	}
	if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil && kb > w.kb {
		w.kb = kb
	}
}

// peakMB stops the watch and returns the highest VmHWM it read.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(w.kb) / 1024
}

// tail returns the last few lines of s, for error messages.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}
