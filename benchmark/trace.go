package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/optimize"
	"easig/internal/physics"
	"easig/internal/stream"
	"easig/internal/target"
)

// span is one timed call into a layer. Spans of one traced pass share
// the recorder; Parent is -1 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's first component: the module it times.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps the spans of one single-threaded traced pass in
// memory. A nil recorder records nothing, which is how the untraced
// pass runs the same code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// relabel renames a span once its outcome is known.
func (r *recorder) relabel(id int, name string) {
	if r != nil {
		r.spans[id].Name = name
	}
}

// do runs fn inside a span.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns each span's duration minus the time its child
// spans cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans saves the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRun is a -trace 1 run: until the window is spent (at least once)
// it re-executes the workload untraced and traced, which gives the
// tracing overhead and the per-layer self times, and runs the layer
// suite. Declared metrics are medians over the passes; the spans of the
// last traced pass are written as JSONL and summarised per layer.
func traceRun(w workload, e *env, o *outcome) error {
	samples := map[string][]float64{}
	var last *recorder
	start := time.Now()
	var pass time.Duration
	for i := 0; i == 0 || time.Since(start)+pass <= e.window; i++ {
		began := time.Now()
		untraced := func() (time.Duration, error) {
			t := time.Now()
			err := w.trace(e, nil)
			return time.Since(t), err
		}
		// Alternate which pass runs first, so warming caches favours
		// neither side of the overhead.
		var plain time.Duration
		var err error
		if i%2 == 0 {
			if plain, err = untraced(); err != nil {
				return err
			}
		}
		rec := newRecorder()
		root := rec.begin("bench." + w.name)
		err = w.trace(e, rec)
		rec.end(root)
		if err != nil {
			return err
		}
		if i%2 == 1 {
			if plain, err = untraced(); err != nil {
				return err
			}
		}
		traced := rec.spans[root].dur()
		samples["bench.trace_overhead_pct"] = append(samples["bench.trace_overhead_pct"], 100*(traced-plain).Seconds()/plain.Seconds())
		samples["bench.unattributed_pct"] = append(samples["bench.unattributed_pct"], 100*selfTimes(rec.spans)[root].Seconds()/traced.Seconds())
		layers, err := layerSuite(e)
		if err != nil {
			return err
		}
		for k, v := range layers {
			samples[k] = append(samples[k], v)
		}
		o.op(nil)
		last = rec
		pass = time.Since(began)
	}
	for _, m := range layerMetrics {
		if v, ok := samples[m.name]; ok {
			o.set(m.name, median(v))
		}
	}
	o.note("passes", float64(len(samples["bench.unattributed_pct"])), "count")

	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
	if err := writeSpans(path, last.spans); err != nil {
		return err
	}
	e.logf("wrote %d spans to %s", len(last.spans), path)
	self := selfTimes(last.spans)
	selfByLayer := map[string]time.Duration{}
	countByName := map[string]int{}
	for i, s := range last.spans {
		selfByLayer[s.layer()] += self[i]
		countByName[s.Name]++
	}
	for _, l := range sortedKeys(selfByLayer) {
		o.note("trace."+l+".self_ms", ms(selfByLayer[l]), "ms")
	}
	for _, n := range sortedKeys(countByName) {
		o.note("trace."+n+".count", float64(countByName[n]), "count")
	}
	return nil
}

// traceCase is the test case and per-run seed every traced pass uses:
// the single case of a 1x1 grid, seeded like job 0 of the run.
func traceCase(e *env, obs int64) inject.RunConfig {
	return inject.RunConfig{
		TestCase:      physics.Grid(1)[0],
		ObservationMs: obs,
		Seed:          experiment.RunSeed(ficSeed(e.seed, 0), 0),
	}
}

// traceRuns serves errs through runner r, journaling every readout as
// fic does. label names a served error's span after the fact (nil keeps
// "inject.run_error").
func traceRuns(e *env, rec *recorder, exp string, r inject.Runner, errs []inject.Error, versions []target.Version, label func() string) error {
	jw, err := journal.Create(filepath.Join(e.dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	defer jw.Close()
	out := make([]inject.RunResult, len(versions))
	seed := experiment.RunSeed(ficSeed(e.seed, 0), 0)
	for ei, er := range errs {
		id := rec.begin("inject.run_error")
		if err := r.RunError(er, versions, out); err != nil {
			return err
		}
		rec.end(id)
		if label != nil {
			rec.relabel(id, label())
		}
		err := rec.do("journal.append", func() error {
			for vi, v := range versions {
				line := journal.Record{Experiment: exp, Version: int(v), ErrIdx: ei, ErrID: er.ID, Seed: seed,
					Detected: out[vi].Detected, Failed: out[vi].Failed, LatencyMs: out[vi].LatencyMs}
				if err := jw.Run(line); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return rec.do("journal.close", jw.Close)
}

// traceE1 serves every E1 error of one case on the snapshot engine.
func traceE1(e *env, rec *recorder) error {
	cfg := traceCase(e, e.sc.observeMs)
	var eng *inject.Engine
	err := rec.do("inject.profile_build", func() error {
		p, err := inject.NewProfileCache().Get(0, cfg, false)
		if err != nil {
			return err
		}
		eng, err = inject.NewEngineFromProfile(p)
		return err
	})
	if err != nil {
		return err
	}
	return traceRuns(e, rec, "E1", eng, inject.BuildE1(), target.Versions(), nil)
}

// traceExhaustive serves every traceStride-th fault position of one
// case on the memo runner, labelling each run by how it was served.
func traceExhaustive(e *env, rec *recorder) error {
	cfg := traceCase(e, e.sc.observeMs)
	var mr *inject.MemoRunner
	err := rec.do("inject.profile_build", func() error {
		p, err := inject.NewProfileCache().Get(0, cfg, true)
		if err != nil {
			return err
		}
		mr, err = inject.NewMemoRunnerFromProfile(p, nil)
		return err
	})
	if err != nil {
		return err
	}
	var errs []inject.Error
	for i, er := range inject.BuildExhaustive() {
		if i%e.sc.traceStride == 0 {
			errs = append(errs, er)
		}
	}
	var prev inject.RunnerStats
	label := func() string {
		st := mr.Stats()
		name := "inject.run_error.simulated"
		switch {
		case st.Pruned > prev.Pruned:
			name = "inject.run_error.pruned"
		case st.MemoHits > prev.MemoHits:
			name = "inject.run_error.memo_hit"
		}
		prev = st
		return name
	}
	return traceRuns(e, rec, "E2-exhaustive", mr, errs, []target.Version{target.VersionAll}, label)
}

// traceLattice calibrates the cost model, probes every E1 error of one
// case, journals the probes, and rescores the lattice from the journal.
func traceLattice(e *env, rec *recorder) error {
	obs := e.sc.traceLatticeObserveMs
	cfg := traceCase(e, obs)
	spec := optimize.Spec{Errors: optimize.ErrorsE1, Grid: 1, ObservationMs: obs, Seed: ficSeed(e.seed, 0)}
	var cost optimize.CostModel
	err := rec.do("optimize.calibrate", func() error {
		var err error
		cost, err = optimize.Calibrate(optimize.CalibrateOptions{TestCase: cfg.TestCase, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return err
	}
	var pr *inject.Probe
	err = rec.do("inject.profile_build", func() error {
		p, err := inject.NewProfileCache().Get(0, cfg, true)
		if err != nil {
			return err
		}
		pr, err = inject.NewProbeFromProfile(inject.ModeMemo, p)
		return err
	})
	if err != nil {
		return err
	}
	path := filepath.Join(e.dir, "trace-probes.jsonl")
	jw, err := journal.Create(path)
	if err != nil {
		return err
	}
	defer jw.Close()
	for ei, er := range inject.BuildE1() {
		var prof inject.EAProfile
		if err := rec.do("inject.probe", func() (err error) { prof, err = pr.ProfileError(er); return err }); err != nil {
			return err
		}
		err := rec.do("journal.append", func() error {
			return jw.Probe(journal.Probe{Experiment: spec.Experiment(), ErrIdx: ei, ErrID: er.ID, Seed: cfg.Seed,
				Failed: prof.Failed, FailTickMs: prof.FailTickMs,
				Master: append([]int64(nil), prof.Master[:]...), Slave: append([]int64(nil), prof.Slave[:]...)})
		})
		if err != nil {
			return err
		}
	}
	if err := rec.do("journal.close", jw.Close); err != nil {
		return err
	}
	var log *journal.Log
	if err := rec.do("journal.load", func() (err error) { log, err = journal.Load(path); return err }); err != nil {
		return err
	}
	return rec.do("optimize.rescore", func() error {
		rep, err := optimize.Run(spec, optimize.Options{Workers: 1, Resume: log, Cost: &cost})
		if err == nil && rep.Resumed != rep.Probes {
			err = fmt.Errorf("rescore simulated %d probes, want 0", rep.Probes-rep.Resumed)
		}
		return err
	})
}

// traceReplay runs a one-case census into a journal, then loads it,
// replays it and renders the tables.
func traceReplay(e *env, rec *recorder) error {
	path := filepath.Join(e.dir, "trace-census.jsonl")
	jw, err := journal.Create(path)
	if err != nil {
		return err
	}
	cfg := experiment.Config{
		Spec: experiment.Spec{Grid: 1, ObservationMs: e.sc.replayObserveMs, Seed: ficSeed(e.seed, 0), Exhaustive: true},
		Exec: experiment.Exec{Mode: inject.ModeMemo, Workers: 1, Journal: jw},
	}
	err = rec.do("experiment.run", func() error { _, err := experiment.RunE2(cfg); return err })
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := rec.do("journal.load", func() (err error) { cfg.Resume, err = journal.Load(path); return err }); err != nil {
		return err
	}
	cfg.Journal, cfg.ReplayOnly = nil, true
	var res *experiment.E2Result
	if err := rec.do("experiment.replay", func() (err error) { res, err = experiment.RunE2(cfg); return err }); err != nil {
		return err
	}
	var buf bytes.Buffer
	return rec.do("experiment.report", func() error {
		rep := experiment.Reporter{Format: experiment.TextFormat{}, Output: experiment.WriterOutput{W: &buf}}
		return rep.Report(&experiment.Results{Spec: cfg.Spec, E2: res})
	})
}

// traceGateway encodes gateway batches and applies them through an
// unstarted service: ingest (validate, partition, enqueue) and apply
// (the monitors) on this goroutine.
func traceGateway(e *env, rec *recorder) error {
	var sp *streamSpec
	err := rec.do("bench.inputs", func() (err error) { sp, err = gatewaySpec(e.seed); return err })
	if err != nil {
		return err
	}
	svc, err := stream.NewUnstarted(stream.Config{Shards: 2, MaxStreams: sp.streams, QueueBatches: 64})
	if err != nil {
		return err
	}
	var payload []byte
	for j := 0; j < 2*256; j++ {
		rec.do("stream.encode", func() error { payload = sp.build(payload[:0], j%conns, j/conns); return nil })
		if err := rec.do("stream.ingest", func() error { _, _, err := svc.Ingest(payload); return err }); err != nil {
			return err
		}
		rec.do("stream.apply", func() error { svc.DrainQueued(); return nil })
	}
	if m := svc.Metrics(); m.Detections == 0 {
		return fmt.Errorf("traced gateway detected nothing; the faulty streams are not exercised")
	}
	return nil
}

// traceTelemetry sends telemetry requests through the service's HTTP
// handler in process (body read, validation, partitioning, JSON ack),
// then applies them.
func traceTelemetry(e *env, rec *recorder) error {
	var sp *streamSpec
	err := rec.do("bench.inputs", func() (err error) { sp, err = telemetrySpec(e.seed); return err })
	if err != nil {
		return err
	}
	svc, err := stream.NewUnstarted(stream.Config{Shards: 2, MaxStreams: sp.streams, QueueBatches: 64})
	if err != nil {
		return err
	}
	h := svc.Handler()
	var payload []byte
	for j := 0; j < 2*4096; j++ {
		rec.do("stream.encode", func() error { payload = sp.build(payload[:0], j%conns, j/conns); return nil })
		err := rec.do("stream.http", func() error {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(payload)))
			if rw.Code != http.StatusOK {
				return fmt.Errorf("ingest: %d %s", rw.Code, rw.Body)
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.do("stream.apply", func() error { svc.DrainQueued(); return nil })
	}
	return nil
}
