// Command bench is the repository benchmark. It runs six workloads
// through the user-facing binaries (fic and sigmond, each run a fresh
// child process), checks that their outputs are correct, and prints
// every metric as "name value unit" followed by one JSON result line.
// BENCHMARK.json at the repository root names the workloads and the
// metrics; README.md in this directory explains why each was chosen.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash benchmark/run.sh [-workload all|<name>,...] [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out file]
//	bash benchmark/run.sh -compare parent.json change.json
//
// With -trace 0 (the default) a run measures the end-to-end metrics.
// With -trace 1 it instead re-executes the workload in process and
// single-threaded with a span around every call into a layer, and runs
// the per-layer measurements; end-to-end numbers never come from a
// traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the committed golden hashes were recorded at.
const defaultSeed = 1

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. What a unit of work is depends on the workload
// (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"cpu_us_per_unit", "us"},
	{"peak_rss_mb", "MB"},
}

// workload is one benchmark workload.
type workload struct {
	name string
	// run measures the workload end to end through the CLIs.
	run func(e *env, o *outcome) error
	// trace re-executes the workload in process and single-threaded,
	// with a span around every call into a layer. rec is nil for the
	// untraced pass the tracing overhead is measured against.
	trace func(e *env, rec *recorder) error
	// bounds are this workload's own regression bounds, used by -compare
	// where they are tighter than BENCHMARK.json's, which must cover the
	// noisiest workload: max(5%, 3 x the largest spread of a set of ten
	// runs on the calibration host; see README.md).
	bounds map[string]float64
}

var workloads = []workload{
	{"e1_campaign", runE1, traceE1, map[string]float64{"work_per_s": 0.12, "cpu_us_per_unit": 0.12, "peak_rss_mb": 0.08}},
	{"exhaustive_census", runExhaustive, traceExhaustive, map[string]float64{"peak_rss_mb": 0.2}},
	{"lattice_sweep", runLattice, traceLattice, nil},
	{"journal_replay", runReplay, traceReplay, map[string]float64{"work_per_s": 0.24, "cpu_us_per_unit": 0.2, "peak_rss_mb": 0.15}},
	{"stream_gateway", runGateway, traceGateway, map[string]float64{"peak_rss_mb": 0.06}},
	{"stream_telemetry", runTelemetry, traceTelemetry, map[string]float64{"peak_rss_mb": 0.05}},
}

// workloadBound returns a workload's own bound for a metric, if it has one.
func workloadBound(name, metric string) (float64, bool) {
	for _, w := range workloads {
		if w.name == name {
			b, ok := w.bounds[metric]
			return b, ok
		}
	}
	return 0, false
}

// env is what one run of one workload needs.
type env struct {
	bin    string        // directory holding the fic and sigmond binaries
	dir    string        // scratch directory of this run, removed after it
	work   string        // directory that outlives the run (span files)
	seed   int64         // input seed
	window time.Duration // measurement window
	sc     scale
	speed  *speedSampler
	log    io.Writer
}

// logf writes a progress line to the log.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

// reading is one printed metric value.
type reading struct {
	name  string
	value float64
	unit  string
}

// outcome collects what one run measured and checked.
type outcome struct {
	metrics   map[string]float64 // the declared metrics of the run's mode
	extra     []reading          // diagnostics: printed, not in the result line
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// set records a declared metric.
func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// note records a diagnostic reading.
func (o *outcome) note(name string, v float64, unit string) {
	o.extra = append(o.extra, reading{name, v, unit})
}

// op counts one attempted operation, and a failure when err is not nil.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.problems = append(o.problems, err.Error())
	}
}

// check counts one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.op(nil)
		return
	}
	o.op(fmt.Errorf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "workloads to run: all, or a comma-separated list of names")
		seed    = fs.Int64("seed", defaultSeed, "input seed; run r of -runs uses seed+r")
		seconds = fs.Int("seconds", 10, "measurement window of one run, in seconds")
		traceF  = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		runs    = fs.Int("runs", 1, "runs per workload, reported as median, quartiles and count")
		out     = fs.String("out", "", "also write every run's metric values to this JSON file (the input of -compare)")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments: parent.json change.json")
		bin     = fs.String("bin", ".bench_build/bin", "directory holding the fic and sigmond binaries")
		work    = fs.String("work", ".bench_build/work", "directory for scratch journals and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent.json change.json")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds >= 1, -runs >= 1, -trace 0 or 1 and no positional arguments")
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := config{
		bin: *bin, work: *work, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *traceF == 1, runs: *runs, sc: fullScale, log: stderr,
	}
	res, err := execute(selected, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ok := res.print(stdout, stderr)
	if !ok {
		return 1
	}
	return 0
}

// selectWorkloads resolves the -workload list.
func selectWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// config is one invocation's settings.
type config struct {
	bin, work string
	seed      int64
	window    time.Duration
	trace     bool
	runs      int
	sc        scale
	log       io.Writer
}

// series is one metric's values over the runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// results is everything one invocation measured.
type results struct {
	Trace     bool                         `json:"trace"`
	Order     []string                     `json:"workloads"`
	Workloads map[string]map[string]series `json:"metrics"`

	declared  []metricDef
	extra     map[string][]reading
	attempted int
	failed    int
	problems  []string
}

// execute runs every selected workload cfg.runs times.
func execute(selected []workload, cfg config) (*results, error) {
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	res := &results{
		Trace:     cfg.trace,
		Workloads: map[string]map[string]series{},
		extra:     map[string][]reading{},
		declared:  e2eMetrics,
	}
	if cfg.trace {
		res.declared = layerMetrics
	}
	speed := startSpeedSampler()
	defer speed.close()

	for _, w := range selected {
		res.Order = append(res.Order, w.name)
		for r := 0; r < cfg.runs; r++ {
			dir, err := os.MkdirTemp(cfg.work, w.name+"-")
			if err != nil {
				return nil, err
			}
			e := &env{
				bin: cfg.bin, dir: dir, work: cfg.work, seed: cfg.seed + int64(r),
				window: cfg.window, sc: cfg.sc, speed: speed, log: cfg.log,
			}
			e.logf("%s seed %d (trace %v)", w.name, e.seed, cfg.trace)
			o := newOutcome()
			if cfg.trace {
				err = traceRun(w, e, o)
			} else {
				err = w.run(e, o)
			}
			if err != nil {
				o.op(fmt.Errorf("%s: %w", w.name, err))
			}
			if rmErr := os.RemoveAll(dir); rmErr != nil {
				e.logf("removing %s: %v", dir, rmErr)
			}
			for _, m := range res.declared {
				v, ok := o.metrics[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					o.op(fmt.Errorf("%s: metric %s was not measured", w.name, m.name))
					continue
				}
				if res.Workloads[w.name] == nil {
					res.Workloads[w.name] = map[string]series{}
				}
				s := res.Workloads[w.name][m.name]
				s.Unit = m.unit
				s.Values = append(s.Values, v)
				res.Workloads[w.name][m.name] = s
			}
			res.absorb(w.name, o)
		}
	}
	return res, nil
}

// absorb folds one outcome's counts and diagnostics into the results.
func (r *results) absorb(name string, o *outcome) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	r.extra[name] = append(r.extra[name], o.extra...)
}

// print writes the readable lines and the final JSON result line, and
// reports whether every operation and check succeeded.
func (r *results) print(stdout, stderr io.Writer) bool {
	final := map[string]jsonMetric{}
	for _, w := range r.Order {
		fmt.Fprintf(stdout, "# %s\n", w)
		for _, m := range r.declared {
			s, ok := r.Workloads[w][m.name]
			if !ok {
				continue
			}
			med := median(s.Values)
			if len(s.Values) > 1 {
				q1, q3 := quartiles(s.Values)
				fmt.Fprintf(stdout, "%s %v %s q1=%v q3=%v n=%d\n", m.name, med, m.unit, q1, q3, len(s.Values))
			} else {
				fmt.Fprintf(stdout, "%s %v %s\n", m.name, med, m.unit)
			}
			key := m.name
			if len(r.Order) > 1 {
				key = w + "." + m.name
			}
			final[key] = jsonMetric{Value: med, Unit: m.unit}
		}
		for _, rd := range r.extra[w] {
			fmt.Fprintf(stdout, "%s %v %s\n", rd.name, rd.value, rd.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "bench: FAILED:", p)
	}
	correct := r.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, final})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return correct
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write saves every run's values for -compare.
func (r *results) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
