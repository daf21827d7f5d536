package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark was calibrated on is shared: as other tenants
// load its physical cores, the same fic job's CPU time moves by 30%
// within minutes and by up to a factor of two within an hour, and every
// time the benchmark measures moves with it. A speed sampler runs a fixed
// reference kernel for a moment every samplePeriod, on a thread of its
// own, and times it in that thread's CPU time, which waiting for a CPU
// does not inflate. The benchmark divides the times it measures by the
// slowdown the sampler read while they were measured, so they read as
// they would on the host at its nominal speed.
//
// The kernel is a dependent chain of multiplies and rotates that stays
// in registers, so the program under test cannot slow it through the
// caches; it reads how fast the host runs instructions. Kernels that
// touch memory (Go maps of 512 and 4096 entries, random access in 256 KB
// to 64 MB) tracked the jobs' speed as well or better on quiet stretches,
// but their readings moved by 7-11% with what else ran on the VM, and a
// map kernel read twice as slow during lattice jobs that had slowed by
// far less; this one read the same within 4% under every load tried.
const (
	samplePeriod = 20 * time.Millisecond
	// sampleIters is the kernel's length: about half a millisecond, a
	// 2.5% share of one CPU.
	sampleIters = 1 << 18
	// nominalSampleNs is the kernel's CPU time at nominal speed: its
	// median on the idle two-vCPU VM the benchmark was calibrated on.
	nominalSampleNs = 480e3
)

// kernel is the reference kernel.
//
//go:noinline
func kernel(n int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < n; i++ {
		h ^= uint64(i)
		h *= 1099511628211
		h = h<<13 | h>>51
	}
	return h
}

// kernelSink keeps the kernel's result live.
var kernelSink uint64

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedSampler samples the host's speed until closed.
type speedSampler struct {
	mu      sync.Mutex
	samples []float64 // kernel CPU nanoseconds, in order
	stop    chan struct{}
	done    chan struct{}
}

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// The thread's CPU clock times the kernel only while the
		// goroutine cannot move to another thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var sink uint64
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			t := threadCPU()
			sink += kernel(sampleIters)
			ns := float64(threadCPU() - t)
			s.mu.Lock()
			s.samples = append(s.samples, ns)
			s.mu.Unlock()
			select {
			case <-s.stop:
				kernelSink = sink
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// mark returns the current position in the sample sequence.
func (s *speedSampler) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// slowdown is how many times slower than nominal the host ran since
// mark m: the median of the samples taken since then (the latest one
// when none was) over the nominal.
func (s *speedSampler) slowdown(m int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m = min(m, len(s.samples)-1)
	if m < 0 {
		return 1
	}
	return median(s.samples[m:]) / nominalSampleNs
}

// close stops the sampler and waits for it.
func (s *speedSampler) close() {
	close(s.stop)
	<-s.done
}
