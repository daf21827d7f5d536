package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"easig/internal/stream"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{n: 2000, p: 99, value: 1980, ok: true}, // 2 beyond p99.9
		{n: 1000, p: 99, value: 990, ok: true},
		{n: 100, p: 90, value: 90, ok: true},
		{n: 40, p: 75, value: 30, ok: true},
		{n: 20, p: 50, value: 10, ok: true},
		{n: 15, ok: false},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || (ok && (p != tc.p || v != tc.value)) {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, p, v, ok, tc.p, tc.value, tc.ok)
		}
	}
}

// TestQuartilesMatchPython pins the interpolation to Python's
// statistics.quantiles(v, n=4), whose results the spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "inject.a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "journal.c", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "inject.b", Start: 50, End: 60},
	}
	want := []time.Duration{60, 20, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if l := spans[2].layer(); l != "journal" {
		t.Errorf("layer = %q, want journal", l)
	}
}

func TestRecorderNests(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("bench.root")
	rec.do("inject.a", func() error {
		return rec.do("journal.b", func() error { return nil })
	})
	id := rec.begin("inject.run_error")
	rec.end(id)
	rec.relabel(id, "inject.run_error.pruned")
	rec.end(root)
	parents := map[string]int{}
	for _, s := range rec.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := map[string]int{"bench.root": -1, "inject.a": 0, "journal.b": 1, "inject.run_error.pruned": 0}
	for name, p := range want {
		if got, ok := parents[name]; !ok || got != p {
			t.Errorf("span %s: parent %d (present %v), want %d", name, got, ok, p)
		}
	}

	var none *recorder
	if err := none.do("inject.a", func() error { return nil }); err != nil || none.begin("x") != -1 {
		t.Error("a nil recorder must run the call and record nothing")
	}
}

func TestJudge(t *testing.T) {
	around := func(center, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = center + step*float64(i%5-2)
		}
		return v
	}
	parent := around(100, 0.5)
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		higher bool
		want   string
	}{
		{"faster", parent, around(90, 0.5), false, "improved"},
		{"same", parent, around(100.2, 0.5), false, "unchanged"},
		{"slower within bound", parent, around(105, 0.5), false, "unchanged"},
		{"slower beyond bound", parent, around(120, 0.5), false, "regressed"},
		{"throughput up", parent, around(110, 0.5), true, "improved"},
		{"noisy parent", around(100, 10), around(101, 10), false, "unresolved"},
		{"noisy but separated", around(100, 10), around(10, 1), false, "improved"},
		{"too few pairs", parent[:5], parent[:5], false, "insufficient: 5 pairs, need 10"},
	} {
		if got := judge(tc.parent, tc.change, tc.higher, 0.1, 0).outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// An absolute floor widens a bound that is small in absolute terms.
	if got := judge(parent, around(120, 0.5), false, 0.1, 30).outcome; got != "unchanged" {
		t.Errorf("20 worse against a floor of 30: %s, want unchanged", got)
	}
	// Nine wins in ten are required: one lost pair still counts, two do not.
	change := around(90, 0.5)
	change[0], change[1] = 200, 200
	if got := judge(parent, change, false, 0.1, 0).outcome; got == "improved" {
		t.Errorf("8 of 10 wins judged %s", got)
	}
}

func TestPlan(t *testing.T) {
	n0, due0 := plan(0, time.Millisecond, 10*time.Millisecond)
	n1, due1 := plan(1, time.Millisecond, 10*time.Millisecond)
	if n0 != 5 || n1 != 5 {
		t.Fatalf("plan counts %d and %d, want 5 and 5", n0, n1)
	}
	if due0(2) != 4*time.Millisecond || due1(2) != 5*time.Millisecond {
		t.Errorf("due(2) = %v, %v; want 4ms, 5ms", due0(2), due1(2))
	}
}

// TestOpenLoopLateness checks the open-loop accounting: a request is
// timed from when it was due, a slow service makes the generator late,
// and what it could not send by half a rung overdue is backlog.
func TestOpenLoopLateness(t *testing.T) {
	sp := &streamSpec{samplesPerRequest: 1, unitsPerRequest: 1, build: func(dst []byte, c, j int) []byte { return dst }}
	service := func(d time.Duration) func([]byte) (int, int, error) {
		return func([]byte) (int, int, error) {
			time.Sleep(d)
			return 1, 0, nil
		}
	}

	fast := offer(sp, service(0), 0, 5*time.Millisecond, 200*time.Millisecond)
	if fast.backlog != 0 || fast.accepted != 20 || fast.failed != 0 {
		t.Fatalf("fast service: accepted %d backlog %d failed %d, want 20, 0, 0", fast.accepted, fast.backlog, fast.failed)
	}
	for i := range fast.latency {
		if fast.latency[i] < fast.late[i] {
			t.Fatalf("request %d acked before it was sent", i)
		}
	}

	// 20 ms per request against one due every 10 ms on this connection:
	// each request starts later than the one before.
	slow := offer(sp, service(20*time.Millisecond), 0, 5*time.Millisecond, 200*time.Millisecond)
	if slow.backlog == 0 || slow.accepted+slow.backlog != 20 {
		t.Fatalf("slow service: accepted %d backlog %d, want a backlog and 20 in total", slow.accepted, slow.backlog)
	}
	first, last := slow.late[0], slow.late[len(slow.late)-1]
	if last < first+50*time.Millisecond {
		t.Errorf("generator lateness grew from %v to %v; a stalled service must make it grow", first, last)
	}
	if slow.latency[len(slow.latency)-1] < last+20*time.Millisecond {
		t.Errorf("last latency %v does not include the %v the request waited to be sent", slow.latency[len(slow.latency)-1], last)
	}

	failing := offer(sp, func([]byte) (int, int, error) { return 0, 0, errors.New("refused") }, 1, 5*time.Millisecond, 100*time.Millisecond)
	if failing.failed != 1 || failing.accepted != 0 || failing.backlog != 9 {
		t.Errorf("failing service: failed %d accepted %d backlog %d, want 1, 0, 9", failing.failed, failing.accepted, failing.backlog)
	}
}

// TestSustainedRate checks that the ladder's capacity is read from the
// bottom up: a rung counts only when it and every rung below it were
// sustained every time they ran.
func TestSustainedRate(t *testing.T) {
	ladder := []float64{1, 2, 4, 8}
	ran := []int{1, 1, 1, 5}
	for _, tc := range []struct {
		held []int
		want float64
	}{
		{[]int{1, 1, 0, 0}, 2},
		{[]int{1, 0, 1, 0}, 1}, // a rung held above one that failed is noise
		{[]int{0, 1, 1, 0}, 0},
		{[]int{1, 1, 1, 4}, 4}, // the top held four times of five
		{[]int{1, 1, 1, 5}, 8},
	} {
		if got := sustainedRate(ladder, ran, tc.held); got != tc.want {
			t.Errorf("held %v: sustained %v, want %v", tc.held, got, tc.want)
		}
	}
}

func TestTrafficShapes(t *testing.T) {
	gw, err := gatewaySpec(1)
	if err != nil {
		t.Fatal(err)
	}
	p := gw.build(nil, 1, 128) // wraps to tick 0 of the second cycle
	if len(p) != stream.HeaderBytes+gw.samplesPerRequest*stream.RecordBytes {
		t.Fatalf("gateway payload is %d bytes", len(p))
	}
	r, err := stream.DecodeRecord(p[stream.HeaderBytes:])
	if err != nil || r.Stream != 1 || r.Tick != 0 || r.Flags != stream.FlagReset {
		t.Errorf("first gateway record %+v, want stream 1 tick 0 with FlagReset (err %v)", r, err)
	}
	if got := gw.sentTicks(63, [conns]int{0, 3}); got != 96 {
		t.Errorf("gateway stream 63 sent %d ticks after 3 requests, want 96", got)
	}

	tm, err := telemetrySpec(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err = stream.DecodeRecord(tm.build(nil, 0, 513)[stream.HeaderBytes:])
	if err != nil || r.Stream != 512 || r.Tick != 16 {
		t.Errorf("telemetry request 513 of connection 0 starts %+v, want stream 512 tick 16 (err %v)", r, err)
	}
	for _, tc := range []struct{ s, want int }{{0, 32}, {512, 16}, {2, 16}, {1, 16}, {1021, 16}, {1023, 0}} {
		if got := tm.sentTicks(tc.s, [conns]int{513, 511}); got != tc.want {
			t.Errorf("telemetry stream %d sent %d ticks, want %d", tc.s, got, tc.want)
		}
	}
}

// TestExpectedDetections checks that the reference for a prefix is the
// reference observer's lines up to the sent tick, repeated per cycle.
func TestExpectedDetections(t *testing.T) {
	gw, err := gatewaySpec(1)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(gw)
	if err != nil {
		t.Fatal(err)
	}
	lines := refs[gw.traceOf[3]]
	if len(lines) == 0 || len(refs[gw.traceOf[0]]) != 0 {
		t.Fatalf("faulty stream 3 has %d reference detections and nominal stream 0 has %d; want some and none",
			len(lines), len(refs[gw.traceOf[0]]))
	}
	cut := lines[len(lines)/2].tick
	acked := [conns]int{0, (cycleTicks + cut) / 32}
	sent := gw.sentTicks(3, acked)
	want := 0
	for _, l := range lines {
		want++ // the whole first cycle
		if l.tick < sent-cycleTicks {
			want++
		}
	}
	var got int
	for _, line := range strings.Split(string(expected(gw, refs, acked)), "\n") {
		if strings.HasPrefix(line, "3\t") {
			got++
		}
	}
	if got != want {
		t.Errorf("stream 3 expects %d detections after %d ticks, want %d", got, sent, want)
	}
}

// TestGoldenCheck makes sure the committed hashes are read and compared:
// a result that differs fails at the default seed and full scale, and
// any other seed is not checked.
func TestGoldenCheck(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hashes are recorded on amd64")
	}
	e := &env{seed: defaultSeed, sc: fullScale, log: io.Discard}
	o := newOutcome()
	e.golden(o, "e1_campaign", []byte("not the tables"))
	if o.failed != 1 {
		t.Errorf("a wrong result passed the golden check (%d failures)", o.failed)
	}
	e.seed++
	o = newOutcome()
	e.golden(o, "e1_campaign", []byte("not the tables"))
	if o.attempted != 0 {
		t.Errorf("the golden check ran at seed %d", e.seed)
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file []metricDef, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: %v in BENCHMARK.json, %v here", kind, i, file[i], code[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		for _, w := range workloads {
			if b, ok := w.bounds[m.Name]; ok && (b < 0.05 || b > m.Bound) {
				t.Errorf("%s %s: workload bound %v outside [0.05, %v]", w.name, m.Name, b, m.Bound)
			}
		}
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, e2eMetrics)
	same("per_layer", layers, layerMetrics)
}

// smokeScale runs every workload in about a second.
var smokeScale = scale{
	e1Grid: 1, exhaustiveGrid: 1, latticeGrid: 1, replayGrid: 1,
	observeMs: 1500, replayObserveMs: 1500, checks: 4, oneRung: true,
	traceLatticeObserveMs: 1500, traceStride: 16,
}

// TestSmoke runs all six workloads end to end at a tiny scale through
// freshly built fic and sigmond binaries, and one traced run, and
// requires every check to pass and every declared metric to be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "easig/cmd/fic", "easig/cmd/sigmond")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	var log bytes.Buffer
	for _, traced := range []bool{false, true} {
		selected := workloads
		if traced {
			selected = workloads[3:4]
		}
		cfg := config{bin: bin, work: t.TempDir(), seed: 7, window: time.Second, trace: traced, runs: 1, sc: smokeScale, log: &log}
		res, err := execute(selected, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("trace %v: %d of %d operations failed: %v\n%s", traced, res.failed, res.attempted, res.problems, log.String())
		}
		for _, w := range selected {
			for _, m := range res.declared {
				if s := res.Workloads[w.name][m.name]; len(s.Values) != 1 {
					t.Errorf("trace %v: %s reported %d values of %s", traced, w.name, len(s.Values), m.name)
				}
			}
		}
		var out bytes.Buffer
		if !res.print(&out, &log) {
			t.Errorf("trace %v: result line says incorrect", traced)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var final struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || !final.Correct || final.Attempted < 1 {
			t.Errorf("trace %v: last line %q is not a correct result (%v)", traced, lines[len(lines)-1], err)
		}
	}
}
