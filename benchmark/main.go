// Command benchmark is the repository's benchmark: it drives the public
// functions of the pipeline's layers on the two paths a user waits on — a
// data-flow model in, a risk assessment out; an event into the Router, its
// alert readable on a node — and reports end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. See README.md.
//
// The code under test is configured by zero-value option structs only
// (EngineOptions{}, NodeConfig{}, RouterConfig{}, MonitorConfig{}); the one
// exception is EngineOptions.CacheDir in assess_warm, which is a location,
// not a tuning knob. A later change that alters a default therefore shows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const defaultSeed = 1

// env is what a workload is given: the seed its inputs derive from, how long
// to measure, and (in a traced run) where spans go.
type env struct {
	workload string
	seed     int64
	seconds  float64
	sizes    sizes
	// trace is nil in the untraced run. In a traced run the measurement
	// window is split: the first half runs untraced, the second traced, so
	// the tracing overhead is read inside one process.
	trace        *tracer
	benchDir     string
	updateGolden bool
}

// window is how long the main loop measures: the whole run untraced, two
// thirds of it traced (the rest of a traced run replays single stages).
func (e *env) window() time.Duration {
	d := time.Duration(e.seconds * float64(time.Second))
	if e.trace != nil {
		d = d * 2 / 3
	}
	return d
}

// tracerAt returns the tracer for an operation starting elapsed into the
// window: nil before the window's midpoint and in untraced runs.
func (e *env) tracerAt(elapsed time.Duration) *tracer {
	if e.trace == nil || elapsed < e.window()/2 {
		return nil
	}
	return e.trace
}

func (e *env) outDir() string { return filepath.Join(e.benchDir, "out") }

// workload is one set of inputs the benchmark runs. setup does everything
// that precedes the first timed operation and is repeated to steady setup_s;
// close undoes one setup.
type workload interface {
	setup(e *env) error
	run(e *env, out *outcome) error
	close()
}

// outcome collects what a run measured and what it found wrong.
type outcome struct {
	// opMs are the untraced operations' wall times; tracedOpMs those of the
	// traced half of a traced run.
	opMs, tracedOpMs []float64
	// work counts units of work completed in measured time (the workload
	// says what a unit is); measured is that time.
	work     float64
	measured time.Duration
	// stolen are the untraced operations during which the hypervisor gave
	// more than stealLimit of the machine's CPU time to other guests; they
	// are left out of the metrics unless too few clean ones remain.
	stolen []opSample
	// attempted and failed count operations whose output was checked and
	// those found wrong; failures keeps the first few explanations.
	attempted, failed int64
	failures          []string
	// peakRSSMB is the process's peak resident set when measurement ended,
	// before the correctness check built its reference.
	peakRSSMB float64
	// layer holds per-layer metrics by name: all of them after a traced run;
	// after an untraced one, those the run measures anyway (probe latency
	// percentiles, membership change times), shown in the record's extra.
	layer map[string]float64
}

func newOutcome() *outcome { return &outcome{layer: make(map[string]float64)} }

// check counts n checked operations, all failed when ok is false.
func (o *outcome) check(ok bool, n int64, format string, args ...any) {
	o.attempted += n
	if !ok {
		o.fail(n, format, args...)
	}
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// measurementDone notes the peak memory of the measured part of the run.
func (o *outcome) measurementDone() { o.peakRSSMB = peakRSSMB() }

// opSample is one operation's wall time and the work it did.
type opSample struct {
	d    time.Duration
	work float64
}

// stealLimit is the share of the machine's CPU time the hypervisor may have
// given away during an operation before its time is set aside; minCleanOps
// is how many operations must remain for the clean ones to be used alone.
const (
	stealLimit  = 0.05
	minCleanOps = 3
)

// recordOp files one operation's wall time under the half of the window it
// ran in; an untraced operation's time and work count towards work_per_s.
// steal is the meter started when the operation began.
func (o *outcome) recordOp(tr *tracer, d time.Duration, work float64, steal stealMeter) {
	if tr != nil {
		o.tracedOpMs = append(o.tracedOpMs, float64(d)/1e6)
		return
	}
	if steal.share() > stealLimit {
		o.stolen = append(o.stolen, opSample{d, work})
		return
	}
	o.addOp(opSample{d, work})
}

// addOp counts a clean operation. One that did no work of its own (a
// membership cycle, beside the open loop's traffic) leaves work_per_s to the
// workload.
func (o *outcome) addOp(s opSample) {
	o.opMs = append(o.opMs, float64(s.d)/1e6)
	if s.work > 0 {
		o.work += s.work
		o.measured += s.d
	}
}

// settleStolen decides what becomes of the set-aside operations: dropped
// when enough clean ones remain, otherwise used after all (a run that was
// stolen from throughout has nothing better to report).
func (o *outcome) settleStolen() {
	o.layer["bench.ops_stolen"] = float64(len(o.stolen))
	if len(o.opMs) < minCleanOps {
		for _, s := range o.stolen {
			o.addOp(s)
		}
	}
	o.stolen = nil
}

// metricValue is one reported number with what it was computed from.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
}

// record is the full result of one run, one JSON object per line.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]float64     `json:"extra,omitempty"`
	Host      hostInfo               `json:"host"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Set-up is repeated for a steady median: always three times, and up to
// fifteen while all repetitions together stay under a second (a set-up of a
// few milliseconds is mostly jitter).
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 15
	setupBudget     = time.Second
)

// runWorkload sets the workload up (several times, reporting the median),
// measures it, checks its outputs and assembles the record.
func runWorkload(e *env) (*record, error) {
	def, ok := findWorkload(e.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		return nil, err
	}
	w := def.new()
	var setups []float64
	spent := time.Duration(0)
	for rep := 1; ; rep++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", e.workload, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if rep >= setupRepeatsMax || (rep >= setupRepeatsMin && spent >= setupBudget) {
			break
		}
		w.close()
	}
	defer w.close()

	out := newOutcome()
	steal := startSteal()
	if err := w.run(e, out); err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	out.layer["bench.cpu_steal_share"] = steal.share()
	out.settleStolen()
	if len(out.opMs) == 0 || out.measured <= 0 || out.attempted == 0 {
		return nil, fmt.Errorf("%s: nothing was measured", e.workload)
	}

	rec := &record{Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace != nil,
		Attempted: out.attempted, Failed: out.failed, Failures: out.failures,
		Correct: out.failed == 0, Metrics: make(map[string]metricValue), Host: readHost()}
	if e.trace != nil {
		if len(out.tracedOpMs) > 0 {
			out.layer["bench.trace_overhead_share"] = median(out.tracedOpMs)/median(out.opMs) - 1
		}
		for _, def := range perLayer {
			rec.Metrics[def.Name] = metricValue{Value: out.layer[def.Name], Unit: def.Unit}
		}
		path := filepath.Join(e.outDir(), e.workload+".trace.json")
		if err := e.trace.write(path, e.workload, e.seed); err != nil {
			return nil, err
		}
		return rec, nil
	}
	rec.Extra = out.layer
	q1, q3 := quartiles(out.opMs)
	rec.Metrics["op_p50_ms"] = metricValue{Value: median(out.opMs), Unit: "ms", Samples: len(out.opMs), Q1: q1, Q3: q3}
	rec.Metrics["work_per_s"] = metricValue{Value: out.work / out.measured.Seconds(), Unit: "1/s", Samples: int(out.work)}
	rec.Metrics["peak_rss_mb"] = metricValue{Value: out.peakRSSMB, Unit: "MB"}
	s1, s3 := quartiles(setups)
	rec.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups), Q1: s1, Q3: s3}
	return rec, nil
}

// emit prints the full record and then, as the last line, the contract's
// object.
func emit(rec *record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := contractLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]contractValue, len(rec.Metrics))}
	for name, m := range rec.Metrics {
		line.Metrics[name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", full, last)
	return err
}

// findBenchDir locates the benchmark's directory from the repository root
// (go run ./benchmark, run.sh) or from inside it (go test).
func findBenchDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(dir, "testdata", "golden.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root: benchmark/testdata/golden.json not found")
}

// options are the command's flags.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	all          bool
	repeat       int
	compare      bool
	list         bool
	updateGolden bool
}

// runDeadline ends a single-workload run that has hung: the acceptance
// driver allows a run 180 seconds.
const runDeadline = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (-list names them)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in its own child process")
	flag.IntVar(&o.repeat, "repeat", 0, "run two interleaved sets of k runs per workload and compare their medians")
	flag.BoolVar(&o.compare, "compare", false, "compare two files of records: -compare a.json b.json")
	flag.BoolVar(&o.list, "list", false, "print the benchmark's definition (the content of BENCHMARK.json)")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite testdata/golden.json from this run (default seed, assess workloads)")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	switch {
	case o.list:
		return printCatalog()
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two record files")
		}
		return compareFiles(args[0], args[1])
	case o.repeat > 0:
		return repeatRuns(o.workload, o.seed, o.seconds, o.repeat)
	case o.all:
		return runAll(o.seed, o.seconds, o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", o.workload, runDeadline)
		os.Exit(2)
	})
	defer watchdog.Stop()
	e := &env{workload: o.workload, seed: o.seed, seconds: o.seconds, sizes: fullSizes,
		benchDir: benchDir, updateGolden: o.updateGolden}
	if o.trace != 0 {
		e.trace = newTracer()
	}
	rec, err := runWorkload(e)
	if err != nil {
		return err
	}
	if err := emit(rec); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d checked operations were wrong: %v", rec.Workload, rec.Failed, rec.Attempted, rec.Failures)
	}
	return nil
}

// runSeconds is how long one run measures in the acceptance driver's runs.
const runSeconds = 15

// printCatalog prints the benchmark's definition — what BENCHMARK.json at the
// repository root holds; a test keeps the two equal.
func printCatalog() error {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}
