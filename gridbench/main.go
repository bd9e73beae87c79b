// Command gridbench is the GridMDO benchmark. It runs one named workload
// for a fixed time on inputs generated from a seed, checks the program's
// outputs, and prints every metric by name with its unit: "metric" lines
// for a reader, then, as the last line, one JSON object
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_ms": {"value": 13.2, "unit": "ms"}, ...}}
//
// With --trace 0 the JSON metrics are the end-to-end metrics; with
// --trace 1 the run is repeated with the program's tracer and the
// benchmark's own spans attached, the JSON metrics are the per-layer
// metrics, and the spans are written to --spans. See README.md.
//
//	bash gridbench/run.sh --workload stencil-tcp --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// minReps is the fewest reps a workload runs, however short its budget.
// The first warmupReps are checked but not measured: they pay one-time
// costs (page faults, first use of code paths) no later rep repeats.
const (
	minReps    = 4
	warmupReps = 1
)

// codecSample is how many wire bodies a traced pass keeps for the codec
// replay.
const codecSample = 4096

// passConfig configures one pass of a workload.
type passConfig struct {
	seed   int64
	budget time.Duration
	tiny   bool      // smoke-test input sizes
	short  bool      // only the phase op_ms needs (a --trace 1 run)
	rec    *recorder // non-nil on the traced pass
	base   *outcome  // the untraced pass, on the traced pass
}

// outcome is what one pass measured.
type outcome struct {
	attempted, failed int
	failures          []string
	notes             []string // extra human-readable lines
	vals              map[string]float64
	opMS              float64 // the workload's headline time (op_ms)
}

func newOutcome() *outcome { return &outcome{vals: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.vals[name] = v }

// fail counts one failed attempt and keeps its reason (the first few).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its pass function.
var workloads = map[string]func(passConfig) (*outcome, error){
	wStencil: runStencilTCP,
	wLeanMD:  runLeanMDTCP,
	wGate:    runGateOpen,
	wSim:     runSimGrid,
}

// jsonMetric is one entry of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run parses args and runs one workload; tiny selects smoke-test sizes.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer, tiny bool) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stencil-tcp, leanmd-tcp, gate-open or sim-grid")
	seed := fs.Int64("seed", 1, "input seed (non-negative)")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1: per-layer run with tracing on; 0: end-to-end run")
	spansDir := fs.String("spans", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pass, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "gridbench: need --workload (stencil-tcp|leanmd-tcp|gate-open|sim-grid), --seed >= 0, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "gridbench workload=%s seed=%d seconds=%g trace=%d host_cores=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traced == 0 {
		res, err = runEndToEnd(pass, passConfig{seed: *seed, budget: budget, tiny: tiny}, stdout)
	} else {
		res, err = runLayers(pass, *name, passConfig{seed: *seed, budget: budget, tiny: tiny}, *spansDir, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gridbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printOutcome writes the human-readable lines shared by both modes.
func printOutcome(w io.Writer, label string, o *outcome) {
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "metric failed_frac %g ratio (%d failed of %d attempted, %s)\n", frac, o.failed, o.attempted, label)
	for _, f := range o.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
}

// runEndToEnd is a --trace 0 run: the workload once, untraced.
func runEndToEnd(pass func(passConfig) (*outcome, error), cfg passConfig, w io.Writer) (*result, error) {
	o, err := pass(cfg)
	if err != nil {
		return nil, err
	}
	printOutcome(w, "untraced", o)
	for _, d := range detailEndToEnd {
		if v, ok := o.vals[d.name]; ok {
			fmt.Fprintf(w, "metric %s %g %s\n", d.name, v, d.unit)
		}
	}
	o.vals["op_ms"] = o.opMS
	return newResult(o.attempted, o.failed, o.vals, jsonEndToEnd)
}

// runLayers is a --trace 1 run: an untraced pass (40% of the budget) for
// the overhead baseline, then the traced pass. The per-layer metrics come
// from the traced pass; the span file is written after it ends.
func runLayers(pass func(passConfig) (*outcome, error), name string, cfg passConfig, spansDir string, w io.Writer) (*result, error) {
	baseCfg := cfg
	baseCfg.short = true
	baseCfg.budget = cfg.budget * 40 / 100
	base, err := pass(baseCfg)
	if err != nil {
		return nil, err
	}
	printOutcome(w, "untraced baseline pass", base)

	tracedCfg := cfg
	tracedCfg.short = true
	tracedCfg.budget = cfg.budget - baseCfg.budget
	tracedCfg.rec = newRecorder()
	tracedCfg.base = base
	o, err := pass(tracedCfg)
	if err != nil {
		return nil, err
	}
	printOutcome(w, "traced pass", o)
	if base.opMS > 0 && o.opMS > 0 {
		o.set("trace.overhead_frac", o.opMS/base.opMS-1)
	}

	spans := tracedCfg.rec.snapshot()
	if err := checkTree(spans); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	self := selfTimes(spans)
	path, err := writeSpanFile(spansDir, spanFileHeader{
		Workload: name, Seed: cfg.seed,
		HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Spans: len(spans), Dropped: tracedCfg.rec.dropped, SelfTimes: self,
	}, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans %d written to %s (%d dropped)\n", len(spans), path, tracedCfg.rec.dropped)
	for _, s := range self {
		fmt.Fprintf(w, "selftime %s count=%d total_ms=%.3f self_ms=%.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "metric %s %g %s\n", d.name, o.vals[d.name], d.unit)
	}
	return newResult(base.attempted+o.attempted, base.failed+o.failed, o.vals, perLayer)
}

// newResult builds the JSON line from the named metrics; a metric the
// workload did not produce reads 0.
func newResult(attempted, failed int, vals map[string]float64, defs []metricDef) (*result, error) {
	if attempted == 0 {
		return nil, errors.New("nothing was attempted")
	}
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return r, nil
}
