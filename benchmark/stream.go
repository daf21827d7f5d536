package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"easig/internal/stream"
)

// cycleTicks is the length of the trace every stream replays. A stream
// wraps to tick 0 with FlagReset, which restarts its monitors as a new
// session, so every cycle produces the detections of the first one and
// the reference for any number of sent ticks follows from one cycle.
const cycleTicks = 4096

// Sustain limits of a ladder rung: the ack p99 at most ackLimit, the
// flush after the last send at most drainLimit, no failure and no
// backlog.
const (
	ackLimit   = 50 * time.Millisecond
	drainLimit = 100 * time.Millisecond
)

// conns is the number of client connections; each sends its requests
// one at a time, so per-stream order is preserved (a stream only ever
// travels on one connection).
const conns = 2

// streamSpec is one stream workload's traffic.
type streamSpec struct {
	streams int
	// journal makes sigmond write its detection journals to disk.
	journal bool
	// samplesPerRequest and unitsPerRequest convert an ack's accepted
	// samples into units of work (samples or requests).
	samplesPerRequest, unitsPerRequest int
	// ladder is the offered load of each rung in units/s; ref indexes
	// the reference rung the latency metrics are read at.
	ladder []float64
	ref    int
	// traces are the distinct traces; traceOf maps a stream to its own.
	traces  [][]stream.TraceRow
	traceOf []int
	// build appends the payload of connection c's j-th request.
	build func(dst []byte, c, j int) []byte
	// sentTicks is how many ticks of stream s were sent once each
	// connection had acked[c] requests accepted.
	sentTicks func(s int, acked [conns]int) int
}

// baseTraces are three fault-free arrestment traces drawn from the run
// seed; streams share them, so generating them stays cheap.
func baseTraces(seed int64) ([][]stream.TraceRow, error) {
	out := make([][]stream.TraceRow, 3)
	for k := range out {
		rows, err := stream.NominalTrace(cycleTicks, 14000, 55, ficSeed(seed, k))
		if err != nil {
			return nil, err
		}
		out[k] = rows
	}
	return out, nil
}

// gatewaySpec is a fieldbus gateway: 64 plant streams, each request one
// 1024-record batch of 32 ticks of the 32 streams of one connection,
// interleaved. Every fourth stream carries a bit flip every 64 ticks, so
// detection formatting and journal writes are on the hot path.
func gatewaySpec(seed int64) (*streamSpec, error) {
	const streams, ticksPerRequest = 64, 32
	base, err := baseTraces(seed)
	if err != nil {
		return nil, err
	}
	sp := &streamSpec{
		streams: streams, journal: true,
		samplesPerRequest: streams / conns * ticksPerRequest, unitsPerRequest: streams / conns * ticksPerRequest,
		// Overloaded through two connections, the service took 2.4-4.5 M
		// samples/s (unscaled) on the calibration host as its speed moved:
		// 2 M was sustained on every run, 4 M on some and 8 M on none, and
		// 16 M stays above capacity on a host three times as fast.
		ladder: []float64{1e6, 2e6, 4e6, 8e6, 16e6}, ref: 0,
		traces: base, traceOf: make([]int, streams),
	}
	for s := 0; s < streams; s++ {
		sp.traceOf[s] = s % len(base)
		if s%4 != 3 {
			continue
		}
		rows := append([]stream.TraceRow(nil), base[s%len(base)]...)
		for t := (s * 7) % 64; t < cycleTicks; t += 64 {
			rows[t].Values[(t/64+s)%stream.NumSignals] ^= 1 << 14
		}
		sp.traceOf[s] = len(sp.traces)
		sp.traces = append(sp.traces, rows)
	}
	sp.build = func(dst []byte, c, j int) []byte {
		t0 := (j * ticksPerRequest) % cycleTicks
		dst = stream.AppendHeader(dst, sp.samplesPerRequest)
		for t := t0; t < t0+ticksPerRequest; t++ {
			for s := c; s < streams; s += conns {
				dst = stream.AppendRecord(dst, record(sp.traces[sp.traceOf[s]], s, t))
			}
		}
		return dst
	}
	sp.sentTicks = func(s int, acked [conns]int) int { return acked[s%conns] * ticksPerRequest }
	return sp, nil
}

// telemetrySpec is per-device telemetry: 1024 fault-free streams, each
// request 16 consecutive ticks of one stream, round robin over the
// streams of the connection in an order that alternates between the
// two halves of the stream-ID space, so any prefix of the traffic loads
// both shards alike. Every stream is created by its first request, and
// nothing is detected.
func telemetrySpec(seed int64) (*streamSpec, error) {
	const streams, ticksPerRequest = 1024, 16
	base, err := baseTraces(seed)
	if err != nil {
		return nil, err
	}
	sp := &streamSpec{
		streams:           streams,
		samplesPerRequest: ticksPerRequest, unitsPerRequest: 1,
		// Overloaded, the service took 15-27 k requests/s (unscaled) on
		// the calibration host: 8 k was sustained on every run, 16 k on
		// most and 32 k on none, and 64 k stays above capacity on a host
		// twice as fast.
		ladder: []float64{2000, 4000, 8000, 16000, 32000, 64000}, ref: 0,
		traces: base, traceOf: make([]int, streams),
	}
	for s := range sp.traceOf {
		sp.traceOf[s] = s % len(base)
	}
	perConn := streams / conns
	half := perConn / 2
	sp.build = func(dst []byte, c, j int) []byte {
		pos := j % perConn
		s := c + conns*(pos%2*half+pos/2)
		t0 := (j / perConn * ticksPerRequest) % cycleTicks
		dst = stream.AppendHeader(dst, ticksPerRequest)
		for t := t0; t < t0+ticksPerRequest; t++ {
			dst = stream.AppendRecord(dst, record(sp.traces[sp.traceOf[s]], s, t))
		}
		return dst
	}
	sp.sentTicks = func(s int, acked [conns]int) int {
		k, idx := acked[s%conns], s/conns
		pos := 2 * idx // the stream's place in its connection's round
		if idx >= half {
			pos = 2*(idx-half) + 1
		}
		n := k / perConn
		if pos < k%perConn {
			n++
		}
		return n * ticksPerRequest
	}
	return sp, nil
}

// record is tick t of stream s, flagged as a new session at tick 0.
func record(rows []stream.TraceRow, s, t int) stream.Record {
	r := stream.Record{Stream: uint32(s), Tick: uint32(t), Values: rows[t].Values}
	if t == 0 {
		r.Flags = stream.FlagReset
	}
	return r
}

// refLine is one detection of the inline reference observer, without
// its stream ID.
type refLine struct {
	tick int
	rest []byte // from the tab after the stream ID through the newline
}

// references runs every distinct trace through the inline reference
// observer (stream.Inline) once.
func references(sp *streamSpec) ([][]refLine, error) {
	out := make([][]refLine, len(sp.traces))
	for i, rows := range sp.traces {
		in := stream.NewInline(1)
		if err := in.Ingest(stream.EncodeTrace(nil, 0, rows, cycleTicks, true)); err != nil {
			return nil, err
		}
		det, err := in.Detections()
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.SplitAfter(det, []byte("\n")) {
			f := bytes.SplitN(line, []byte("\t"), 3)
			if len(f) < 3 {
				continue
			}
			tick, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return nil, fmt.Errorf("reference detection %q: %w", line, err)
			}
			out[i] = append(out[i], refLine{tick: tick, rest: line[len(f[0]):]})
		}
	}
	return out, nil
}

// expected renders the canonical detections the reference observer
// reports for the ticks each stream was sent.
func expected(sp *streamSpec, refs [][]refLine, acked [conns]int) []byte {
	var out []byte
	for s := 0; s < sp.streams; s++ {
		lines := refs[sp.traceOf[s]]
		if len(lines) == 0 {
			continue
		}
		id := strconv.Itoa(s)
		n := sp.sentTicks(s, acked)
		full, rem := n/cycleTicks, n%cycleTicks
		for cyc := 0; cyc <= full; cyc++ {
			for _, l := range lines {
				if cyc == full && l.tick >= rem {
					break
				}
				out = append(out, id...)
				out = append(out, l.rest...)
			}
		}
	}
	return out
}

// server is a running sigmond child.
type server struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // spawn to the first healthy /healthz
	done  chan error    // receives cmd.Wait's result
	rss   *rssWatch
}

// startSigmond spawns a sigmond on a free loopback port and waits until
// it answers /healthz.
func startSigmond(e *env, client *http.Client, args ...string) (*server, error) {
	watch := newLineWatch("sigmond: listening on ")
	cmd := exec.Command(filepath.Join(e.bin, "sigmond"), append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Dir = e.dir
	cmd.Env = childEnv()
	cmd.Stderr = watch
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1), rss: watchRSS(cmd.Process.Pid)}
	go func() { s.done <- cmd.Wait() }()
	var line string
	select {
	case line = <-watch.readyCh:
	case err := <-s.done:
		return nil, fmt.Errorf("sigmond exited before listening: %v\n%s", err, tail(watch.String()))
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sigmond did not start listening within 30 s")
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(line, "sigmond: listening on "), " ")
	s.url = "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("sigmond at %s never became healthy: %v", addr, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.setup = time.Since(spawned)
	return s, nil
}

// stop interrupts sigmond, which drains and exits, and returns its CPU
// time and its peak RSS before the interrupt.
func (s *server) stop() (cpu time.Duration, rssMB float64, err error) {
	rssMB = s.rss.peakMB()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return 0, 0, err
	}
	select {
	case err = <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
		return 0, 0, fmt.Errorf("sigmond did not exit within 20 s of an interrupt")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("sigmond: %w", err)
	}
	return s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime(), rssMB, nil
}

// kill ends the child and waits for it and its RSS watch.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.rss.peakMB()
}

// schedule is what one connection of an open-loop rung did.
type schedule struct {
	late     []time.Duration // send time minus due time, per sent request
	latency  []time.Duration // ack time minus due time, per accepted request
	lastAck  time.Duration   // since the rung started
	accepted int             // requests fully accepted
	units    int             // units of work accepted
	failed   int             // requests refused, shed or failed
	backlog  int             // requests due before the end but never sent
}

// plan returns connection c's request count and the due time of its
// j-th request: requests are due every interval, alternating between
// connections, over d.
func plan(c int, interval, d time.Duration) (n int, due func(j int) time.Duration) {
	due = func(j int) time.Duration { return time.Duration(conns*j+c) * interval }
	for due(n) < d {
		n++
	}
	return n, due
}

// offer sends connection c's share of a rung on its schedule, one
// request at a time. A request is timed from when it was due, so a
// stall is charged to every request it delays. Once the rung is half
// its length overdue the connection stops and the unsent requests
// count as backlog.
func offer(sp *streamSpec, post func([]byte) (accepted, dropped int, err error), c int, interval, d time.Duration) schedule {
	var sc schedule
	n, due := plan(c, interval, d)
	var payload []byte
	t0 := time.Now()
	for j := 0; j < n; j++ {
		if time.Since(t0) > d+d/2 {
			sc.backlog = n - j
			break
		}
		payload = sp.build(payload[:0], c, j)
		waitUntil(t0, due(j))
		sent := time.Since(t0)
		accepted, dropped, err := post(payload)
		acked := time.Since(t0)
		sc.late = append(sc.late, sent-due(j))
		if err != nil || dropped > 0 || accepted != sp.samplesPerRequest {
			// A later request of this connection would leave a gap in its
			// streams, so the rung's detections can no longer be checked.
			sc.failed++
			sc.backlog = n - j - 1
			break
		}
		sc.accepted++
		sc.units += sp.unitsPerRequest
		sc.latency = append(sc.latency, acked-due(j))
		sc.lastAck = acked
	}
	return sc
}

// waitUntil blocks until due after t0. It sleeps in the kernel rather
// than on the Go runtime's timers, which wake sub-millisecond waits up
// to a millisecond late on Linux; that would show as generator lateness
// and swamp the service's own latency.
func waitUntil(t0 time.Time, due time.Duration) {
	for {
		d := due - time.Since(t0)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep loops
	}
}

// rung is the outcome of one ladder rung.
type rung struct {
	rate      float64 // offered units/s
	setup     time.Duration
	achieved  float64 // accepted units/s
	latencyMs []float64
	lateMs    []float64
	drain     time.Duration
	failed    int
	backlog   int
	units     int
	cpu       time.Duration
	rssMB     float64
	metrics   stream.Metrics
}

// sustained applies the rung limits.
func (r *rung) sustained() bool {
	if r.failed > 0 || r.backlog > 0 || len(r.latencyMs) == 0 {
		return false
	}
	return percentile(r.latencyMs, 99) <= ms(ackLimit) && r.drain <= drainLimit
}

// runRung runs one rung against a fresh sigmond (re-sending stream IDs
// to a live one legitimately changes its detections) and checks that
// the service's detections equal the reference observer's.
func (e *env) runRung(o *outcome, sp *streamSpec, refs [][]refLine, rate float64, d time.Duration) (*rung, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	args := []string{"-shards", "2", "-max-streams", strconv.Itoa(sp.streams)}
	if sp.journal {
		jdir, err := os.MkdirTemp(e.dir, "journal-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-journal", jdir)
	}
	srv, err := startSigmond(e, client, args...)
	if err != nil {
		return nil, err
	}
	r, err := e.drive(o, client, srv, sp, refs, rate, d)
	cpu, rss, stopErr := srv.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	r.cpu, r.rssMB = cpu, rss
	return r, nil
}

// drive offers one rung's load to a running sigmond and reads back its
// flush time, self-metrics and detections.
func (e *env) drive(o *outcome, client *http.Client, srv *server, sp *streamSpec, refs [][]refLine, rate float64, d time.Duration) (*rung, error) {
	post := func(payload []byte) (int, int, error) {
		resp, err := client.Post(srv.url+"/api/v1/ingest", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			return 0, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("ingest: %s: %s", resp.Status, body)
		}
		var ack stream.IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			return 0, 0, err
		}
		return ack.Accepted, ack.Dropped, nil
	}
	interval := time.Duration(float64(time.Second) * float64(sp.unitsPerRequest) / rate)
	var scheds [conns]schedule
	var wg sync.WaitGroup
	for c := range scheds {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			scheds[c] = offer(sp, post, c, interval, d)
		}(c)
	}
	wg.Wait()

	r := &rung{rate: rate, setup: srv.setup}
	var acked [conns]int
	var lastAck time.Duration
	for c, sc := range scheds {
		acked[c] = sc.accepted
		r.units += sc.units
		r.failed += sc.failed
		r.backlog += sc.backlog
		lastAck = max(lastAck, sc.lastAck)
		for _, l := range sc.late {
			r.lateMs = append(r.lateMs, ms(l))
		}
		for _, l := range sc.latency {
			r.latencyMs = append(r.latencyMs, ms(l))
		}
	}
	o.attempted += len(r.lateMs)
	o.failed += r.failed
	if r.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d ingest requests failed at %.0f units/s", r.failed, rate))
	}
	if lastAck > 0 {
		r.achieved = float64(r.units) / lastAck.Seconds()
	}

	flushStart := time.Now()
	resp, err := client.Post(srv.url+"/api/v1/flush", "", nil)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.drain = time.Since(flushStart)
	if resp.StatusCode != http.StatusNoContent {
		return nil, fmt.Errorf("flush: %s", resp.Status)
	}
	if err := getJSON(client, srv.url+"/api/v1/metrics", &r.metrics); err != nil {
		return nil, err
	}
	det, err := get(client, srv.url+"/api/v1/detections")
	if err != nil {
		return nil, err
	}
	o.check(bytes.Equal(stream.CanonicalizeDetections(det), expected(sp, refs, acked)),
		"sigmond detections at %.0f units/s differ from the inline reference observer's", rate)
	o.check(r.metrics.DroppedSamples == 0, "sigmond shed %d samples under the block policy", r.metrics.DroppedSamples)
	skew := shardSkew(r.metrics)
	o.check(skew <= 1.1, "shard skew %.3f at %.0f units/s exceeds 1.1: one shard does most of the work", skew, rate)
	return r, nil
}

// shardSkew is the busiest shard's sample count over the mean.
func shardSkew(m stream.Metrics) float64 {
	if len(m.PerShard) == 0 || m.Samples == 0 {
		return 0
	}
	var most uint64
	for _, sh := range m.PerShard {
		most = max(most, sh.Samples)
	}
	return float64(most) * float64(len(m.PerShard)) / float64(m.Samples)
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func getJSON(client *http.Client, url string, v any) error {
	b, err := get(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func runGateway(e *env, o *outcome) error   { return e.runLadder(o, gatewaySpec) }
func runTelemetry(e *env, o *outcome) error { return e.runLadder(o, telemetrySpec) }

// topRepeats is how many more times the top rung runs after the ladder.
const topRepeats = 8

// runLadder prepares the traffic and its reference detections, runs the
// ladder once from the bottom rung, then the top rung topRepeats more
// times, every rung on a fresh sigmond. Which vCPUs a process's threads
// land on moves its capacity more than a longer rung would, so capacity
// and CPU per unit are medians over the processes of the top rung, which
// is above what the service sustains; memory and latency are read at
// the reference rung. Times are divided by the host's slowdown during
// the rung (see speed.go). The run fails when the bottom rung was not
// sustained or the top rung was, since either leaves the ladder unable
// to locate the capacity.
func (e *env) runLadder(o *outcome, spec func(int64) (*streamSpec, error)) error {
	prepStart := time.Now()
	sp, err := spec(e.seed)
	if err != nil {
		return err
	}
	refs, err := references(sp)
	if err != nil {
		return err
	}
	o.note("bench.prep_s", time.Since(prepStart).Seconds(), "s")

	top := len(sp.ladder) - 1
	order := []int{}
	for i := range sp.ladder {
		order = append(order, i)
	}
	for k := 0; k < topRepeats; k++ {
		order = append(order, top)
	}
	if e.sc.oneRung {
		order = []int{sp.ref}
	}
	d := e.window / time.Duration(len(order)+2)
	var setups, topRate, topCPU, slow, rawRate, rawCPU []float64
	// ran[i] and held[i] count the runs of rung i and those sustained.
	ran, held := make([]int, len(sp.ladder)), make([]int, len(sp.ladder))
	var atRef *rung
	for n, i := range order {
		m := e.speed.mark()
		r, err := e.runRung(o, sp, refs, sp.ladder[i], d)
		if err != nil {
			return err
		}
		f := e.speed.slowdown(m)
		slow = append(slow, f)
		e.noteRung(o, n, r)
		setups = append(setups, r.setup.Seconds()/f)
		ran[i]++
		if r.sustained() {
			held[i]++
		}
		if i == sp.ref && atRef == nil {
			atRef = r
		}
		if i == top || e.sc.oneRung {
			cpuUs := float64(r.cpu.Microseconds()) / float64(r.units)
			topRate = append(topRate, r.achieved*f)
			topCPU = append(topCPU, cpuUs/f)
			rawRate = append(rawRate, r.achieved)
			rawCPU = append(rawCPU, cpuUs)
		}
	}
	o.set("setup_s", median(setups))
	o.set("work_per_s", median(topRate))
	o.set("cpu_us_per_unit", median(topCPU))
	o.set("peak_rss_mb", atRef.rssMB)
	o.note("bench.slowdown", median(slow), "ratio")
	o.note("unscaled_work_per_s", median(rawRate), "1/s")
	o.note("unscaled_cpu_us_per_unit", median(rawCPU), "us")
	if !e.sc.oneRung {
		o.check(held[0] == ran[0], "the bottom rung, %g/s, was not sustained", sp.ladder[0])
		o.check(held[top] == 0, "the top rung, %g/s, was sustained %d of %d times: it no longer overloads the service",
			sp.ladder[top], held[top], ran[top])
		o.note("sustained_units_per_s", sustainedRate(sp.ladder, ran, held), "1/s")
	}
	o.note("ack_p50_ms", median(atRef.latencyMs), "ms")
	if p, v, ok := tailPercentile(atRef.latencyMs); ok {
		o.note(fmt.Sprintf("ack_p%v_ms", p), v, "ms")
	}
	o.note("ack_samples", float64(len(atRef.latencyMs)), "count")
	o.note("drain_ms", ms(atRef.drain), "ms")
	o.note("bench.generator_late_p99_ms", percentile(atRef.lateMs, 99), "ms")
	o.note("stream.detections", float64(atRef.metrics.Detections), "count")
	o.note("stream.p99_tick_latency_ns", float64(atRef.metrics.P99TickLatencyNs), "ns")
	o.note("stream.shard_skew", shardSkew(atRef.metrics), "ratio")
	return nil
}

// sustainedRate walks the ladder from the bottom and returns the last
// rung before the first one that was not sustained every time it ran
// (0 when the bottom rung was not): the capacity the ladder shows.
func sustainedRate(ladder []float64, ran, held []int) float64 {
	rate := 0.0
	for i, r := range ladder {
		if held[i] < ran[i] {
			break
		}
		rate = r
	}
	return rate
}

// noteRung prints one rung's numbers as diagnostics.
func (e *env) noteRung(o *outcome, n int, r *rung) {
	pre := fmt.Sprintf("rung%d_%g.", n, r.rate)
	o.note(pre+"achieved_per_s", r.achieved, "1/s")
	o.note(pre+"ack_p50_ms", median(r.latencyMs), "ms")
	o.note(pre+"ack_p99_ms", percentile(r.latencyMs, 99), "ms")
	o.note(pre+"late_p99_ms", percentile(r.lateMs, 99), "ms")
	o.note(pre+"drain_ms", ms(r.drain), "ms")
	o.note(pre+"backlog", float64(r.backlog), "count")
	o.note(pre+"peak_rss_mb", r.rssMB, "MB")
	o.note(pre+"cpu_us_per_unit", float64(r.cpu.Microseconds())/float64(r.units), "us")
	sus := 0.0
	if r.sustained() {
		sus = 1
	}
	o.note(pre+"sustained", sus, "bool")
	e.logf("rung %g/s: achieved %.0f/s, ack p50 %.2f ms p99 %.2f ms, late p99 %.2f ms, drain %.1f ms, backlog %d, sustained %v",
		r.rate, r.achieved, median(r.latencyMs), percentile(r.latencyMs, 99), percentile(r.lateMs, 99), ms(r.drain), r.backlog, r.sustained())
}
