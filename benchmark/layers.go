package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"easig/internal/core"
	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/memory"
	"easig/internal/optimize"
	"easig/internal/physics"
	"easig/internal/stream"
	"easig/internal/target"
)

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. Each times one public call of one module at
// fixed inputs; README.md maps each to the end-to-end metric and
// workload it should move.
var layerMetrics = []metricDef{
	{"memory.var16_get_ns", "ns"},
	{"memory.var16_set_ns", "ns"},
	{"physics.env_step_ns", "ns"},
	{"core.monitor_test_ns.ea1", "ns"},
	{"core.monitor_test_ns.ea2", "ns"},
	{"core.monitor_test_ns.ea3", "ns"},
	{"core.monitor_test_ns.ea4", "ns"},
	{"core.monitor_test_ns.ea5", "ns"},
	{"core.monitor_test_ns.ea6", "ns"},
	{"core.monitor_test_ns.ea7", "ns"},
	{"target.tick_ns", "ns"},
	{"target.capture_ns", "ns"},
	{"target.restore_ns", "ns"},
	{"target.tick_bare_ns", "ns"},
	{"target.tick_all_ns", "ns"},
	{"target.ea_master_ns.ea1", "ns"},
	{"target.ea_master_ns.ea2", "ns"},
	{"target.ea_master_ns.ea3", "ns"},
	{"target.ea_master_ns.ea4", "ns"},
	{"target.ea_master_ns.ea5", "ns"},
	{"target.ea_master_ns.ea6", "ns"},
	{"target.ea_master_ns.ea7", "ns"},
	{"target.ea_slave_ns", "ns"},
	{"target.additivity_err_pct", "%"},
	{"target.unattributed_ns_per_tick", "ns"},
	{"inject.profile_build_ms", "ms"},
	{"inject.run_error_us", "us"},
	{"inject.probe_us", "us"},
	{"journal.append_us", "us"},
	{"journal.close_ms", "ms"},
	{"journal.load_ms", "ms"},
	{"journal.bytes_per_record", "B"},
	{"experiment.replay_us_per_run", "us"},
	{"optimize.calibrate_ms", "ms"},
	{"optimize.rescore_ms", "ms"},
	{"optimize.front_size", "count"},
	{"stream.encode_ns_per_sample", "ns"},
	{"stream.ingest_ns_per_sample", "ns"},
	{"stream.apply_ns_per_sample", "ns"},
	{"stream.http_rtt_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
}

// Package-level sinks keep the compiler from discarding timed results.
var (
	sink16 uint16
	sink64 int64
)

// nsPerOp runs fn(n) batches times and returns the median nanoseconds
// per operation.
func nsPerOp(batches, n int, fn func(n int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		fn(n)
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerSuite measures every per-layer metric except the two the traced
// pass itself yields.
func layerSuite(e *env) (map[string]float64, error) {
	out := map[string]float64{}
	seed := ficSeed(e.seed, 0)
	tc := physics.TestCase{MassKg: 14000, VelocityMS: 55}
	trace, err := stream.NominalTrace(cycleTicks, tc.MassKg, tc.VelocityMS, seed)
	if err != nil {
		return nil, err
	}
	for _, step := range []func(map[string]float64) error{
		func(out map[string]float64) error { return memoryLayer(out) },
		func(out map[string]float64) error { return physicsLayer(out, tc, seed) },
		func(out map[string]float64) error { return coreLayer(out, trace) },
		func(out map[string]float64) error { return targetLayer(out, tc, seed) },
		func(out map[string]float64) error { return injectLayer(out, tc, seed) },
		func(out map[string]float64) error { return campaignLayers(out, e.dir, seed) },
		func(out map[string]float64) error { return streamLayer(out, seed) },
	} {
		if err := step(out); err != nil {
			return nil, err
		}
	}
	out["target.unattributed_ns_per_tick"] = out["target.tick_bare_ns"] - out["physics.env_step_ns"]
	return out, nil
}

func memoryLayer(out map[string]float64) error {
	m, err := memory.New(memory.RegionSpec{Name: "ram", Base: 0, Size: 64})
	if err != nil {
		return err
	}
	v := memory.MustBind(m, "x", 0)
	out["memory.var16_get_ns"] = nsPerOp(5, 1<<20, func(n int) {
		var s uint16
		for i := 0; i < n; i++ {
			s += v.Get()
		}
		sink16 = s
	})
	out["memory.var16_set_ns"] = nsPerOp(5, 1<<20, func(n int) {
		for i := 0; i < n; i++ {
			v.Set(uint16(i))
		}
	})
	return nil
}

// physicsLayer steps a fresh plant through one arrestment's worth of
// milliseconds per batch, both valves held at half pressure the way the
// controllers keep them commanded.
func physicsLayer(out map[string]float64, tc physics.TestCase, seed int64) error {
	cst := physics.DefaultConstants()
	half := uint16(cst.MaxPressureKPa / 2 / physics.PressureUnitKPa)
	var err error
	out["physics.env_step_ns"] = nsPerOp(5, 10000, func(n int) {
		env, e := physics.NewEnv(cst, physics.DefaultForceTable(), tc, seed)
		if e != nil {
			err = e
			return
		}
		for i := 0; i < n; i++ {
			env.CommandValve(physics.DrumMaster, half)
			env.CommandValve(physics.DrumSlave, half)
			env.StepMs()
		}
	})
	return err
}

// coreLayer feeds each Table 4 monitor its signal of a fault-free trace.
func coreLayer(out map[string]float64, trace []stream.TraceRow) error {
	for k := 0; k < target.NumEAs; k++ {
		m, err := target.NewSignalMonitor(k, core.WithRecovery(core.NoRecovery{}))
		if err != nil {
			return err
		}
		out[fmt.Sprintf("core.monitor_test_ns.ea%d", k+1)] = nsPerOp(5, len(trace), func(n int) {
			m.Reset()
			var s int64
			for i := 0; i < n; i++ {
				v, _ := m.Test(int64(i), int64(trace[i].Values[k]))
				s += v
			}
			sink64 = s
		})
	}
	return nil
}

// targetLayer times the tick and the snapshot, and reuses the
// optimizer's cost calibration for the per-assertion marginals.
func targetLayer(out map[string]float64, tc physics.TestCase, seed int64) error {
	ticks := make([]float64, 5)
	var sys *target.System
	for b := range ticks {
		var err error
		if sys, err = target.NewSystem(target.SystemConfig{TestCase: tc, Seed: seed, Recovery: core.NoRecovery{}}); err != nil {
			return err
		}
		sys.RunMs(500)
		start := time.Now()
		sys.RunMs(4096)
		ticks[b] = float64(time.Since(start)) / 4096
	}
	out["target.tick_ns"] = median(ticks)
	var st target.SystemState
	sys.Capture(&st)
	out["target.capture_ns"] = nsPerOp(5, 2000, func(n int) {
		for i := 0; i < n; i++ {
			sys.Capture(&st)
		}
	})
	var restoreErr error
	out["target.restore_ns"] = nsPerOp(5, 2000, func(n int) {
		for i := 0; i < n; i++ {
			if err := sys.Restore(&st); err != nil {
				restoreErr = err
			}
		}
	})
	if restoreErr != nil {
		return restoreErr
	}

	start := time.Now()
	cost, err := optimize.Calibrate(optimize.CalibrateOptions{TestCase: tc, Seed: seed})
	if err != nil {
		return err
	}
	out["optimize.calibrate_ms"] = ms(time.Since(start))
	out["target.tick_bare_ns"] = cost.BaselineNsPerTick
	out["target.tick_all_ns"] = cost.AllNsPerTick
	var slave float64
	for k := 0; k < target.NumEAs; k++ {
		out[fmt.Sprintf("target.ea_master_ns.ea%d", k+1)] = cost.MasterNsPerTick[k]
		slave += cost.SlaveNsPerTick[k]
	}
	out["target.ea_slave_ns"] = slave
	out["target.additivity_err_pct"] = cost.AdditivityErrPct()
	return nil
}

// injectLayer times the shared case profile, engine error runs and
// memo-mode probes over the paper's 40 s window.
func injectLayer(out map[string]float64, tc physics.TestCase, seed int64) error {
	cfg := inject.RunConfig{TestCase: tc, ObservationMs: inject.DefaultObservationMs, Seed: seed}
	start := time.Now()
	p, err := inject.NewProfileCache().Get(0, cfg, true)
	if err != nil {
		return err
	}
	out["inject.profile_build_ms"] = ms(time.Since(start))
	eng, err := inject.NewEngineFromProfile(p)
	if err != nil {
		return err
	}
	pr, err := inject.NewProbeFromProfile(inject.ModeMemo, p)
	if err != nil {
		return err
	}
	errs := inject.BuildE1()
	versions := target.Versions()
	res := make([]inject.RunResult, len(versions))
	const runs, probes = 16, 8
	start = time.Now()
	for i := 0; i < runs; i++ {
		if err := eng.RunError(errs[(i*7)%len(errs)], versions, res); err != nil {
			return err
		}
	}
	out["inject.run_error_us"] = us(time.Since(start)) / runs
	start = time.Now()
	for i := 0; i < probes; i++ {
		if _, err := pr.ProfileError(errs[(i*13)%len(errs)]); err != nil {
			return err
		}
	}
	out["inject.probe_us"] = us(time.Since(start)) / probes
	return nil
}

// campaignLayers times the journal, replay and rescoring on a one-case
// census (11 400 runs at a 1.5 s window) and a one-case E1 probe sweep.
func campaignLayers(out map[string]float64, dir string, seed int64) error {
	census := filepath.Join(dir, "suite-census.jsonl")
	jw, err := journal.Create(census)
	if err != nil {
		return err
	}
	cfg := experiment.Config{
		Spec: experiment.Spec{Grid: 1, ObservationMs: 1500, Seed: seed, Exhaustive: true},
		Exec: experiment.Exec{Mode: inject.ModeMemo, Workers: 1, Journal: jw},
	}
	_, err = experiment.RunE2(cfg)
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	start := time.Now()
	log, err := journal.Load(census)
	if err != nil {
		return err
	}
	out["journal.load_ms"] = ms(time.Since(start))
	n := len(log.Runs)
	if fi, err := os.Stat(census); err == nil {
		out["journal.bytes_per_record"] = float64(fi.Size()) / float64(n)
	}

	copyPath := filepath.Join(dir, "suite-append.jsonl")
	cw, err := journal.Create(copyPath)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, r := range log.Runs {
		if err := cw.Run(r); err != nil {
			cw.Close()
			return err
		}
	}
	out["journal.append_us"] = us(time.Since(start)) / float64(n)
	start = time.Now()
	if err := cw.Close(); err != nil {
		return err
	}
	out["journal.close_ms"] = ms(time.Since(start))

	cfg.Journal, cfg.Resume, cfg.ReplayOnly = nil, log, true
	start = time.Now()
	if _, err := experiment.RunE2(cfg); err != nil {
		return err
	}
	out["experiment.replay_us_per_run"] = us(time.Since(start)) / float64(n)

	// Rescoring replays a complete probe journal with a fixed cost model,
	// so it times replay and scoring of the 768-point lattice only.
	probes := filepath.Join(dir, "suite-probes.jsonl")
	pw, err := journal.Create(probes)
	if err != nil {
		return err
	}
	spec := optimize.Spec{Errors: optimize.ErrorsE1, Grid: 1, ObservationMs: 1500, Seed: seed}
	cost := optimize.CostModel{BaselineNsPerTick: 250, AllNsPerTick: 450}
	for k := range cost.MasterNsPerTick {
		cost.MasterNsPerTick[k], cost.SlaveNsPerTick[k] = float64(10+k), float64(5+k)
	}
	_, err = optimize.Run(spec, optimize.Options{Workers: 1, Journal: pw, Cost: &cost})
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	plog, err := journal.Load(probes)
	if err != nil {
		return err
	}
	start = time.Now()
	rep, err := optimize.Run(spec, optimize.Options{Workers: 1, Resume: plog, Cost: &cost})
	if err != nil {
		return err
	}
	out["optimize.rescore_ms"] = ms(time.Since(start))
	out["optimize.front_size"] = float64(len(rep.Front))
	return nil
}

// streamLayer times the wire encoding, the ingest and apply halves of
// the service on one goroutine, and a loopback HTTP round trip.
func streamLayer(out map[string]float64, seed int64) error {
	sp, err := gatewaySpec(seed)
	if err != nil {
		return err
	}
	const requests = 64
	samples := requests * sp.samplesPerRequest
	payloads := make([][]byte, requests)
	var encode, ingest, apply []float64
	svc, err := stream.NewUnstarted(stream.Config{Shards: 2, MaxStreams: sp.streams, QueueBatches: 2 * requests})
	if err != nil {
		return err
	}
	for b := 0; b < 5; b++ {
		start := time.Now()
		for j := range payloads {
			k := b*requests + j
			payloads[j] = sp.build(payloads[j][:0], k%conns, k/conns)
		}
		encode = append(encode, float64(time.Since(start))/float64(samples))
		start = time.Now()
		for _, p := range payloads {
			if _, _, err := svc.Ingest(p); err != nil {
				return err
			}
		}
		ingest = append(ingest, float64(time.Since(start))/float64(samples))
		start = time.Now()
		svc.DrainQueued()
		apply = append(apply, float64(time.Since(start))/float64(samples))
	}
	out["stream.encode_ns_per_sample"] = median(encode)
	out["stream.ingest_ns_per_sample"] = median(ingest)
	out["stream.apply_ns_per_sample"] = median(apply)

	live, err := stream.New(stream.Config{Shards: 2, MaxStreams: sp.streams})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(live.Handler())
	defer func() {
		srv.Close()
		live.Close()
	}()
	rtt := make([]float64, 200)
	for i := range rtt {
		start := time.Now()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: %s", resp.Status)
		}
		rtt[i] = us(time.Since(start))
	}
	out["stream.http_rtt_us"] = median(rtt)
	return nil
}
