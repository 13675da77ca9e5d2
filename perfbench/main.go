// Command perfbench drives the assembled netcoord system through one of
// three workloads, checks the program's outputs against computations
// made apart from the program, and prints one JSON result line:
//
//	perfbench --workload serve-read --seed 1 --seconds 10 --trace 0
//
// serve-read answers proximity reads over loopback HTTP, publish-watch
// carries single-entry upserts from a persistent leader through a
// follower to a /watch stream, and converge runs the paper's simulation.
// With --trace 0 the result carries the end-to-end metrics of the named
// workload; with --trace 1 a separate traced run times every layer call
// the benchmark makes and reports the per-layer metrics instead. See
// README.md for the metric definitions and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workDir, relative to the checkout the benchmark runs from, holds
// temporary data directories and the span files of traced runs.
var workDir = filepath.Join(".bench_build", "perfbench")

// workloadNames lists the workloads in the order a traced run visits
// them.
var workloadNames = []string{"serve-read", "publish-watch", "converge"}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// work is the directory for temporary data directories and the span
	// file; it lies inside the checkout the benchmark runs from.
	work  string
	scale scale
}

// scale sizes the inputs. fullScale is what the benchmark runs; tests
// use tinyScale to drive every workload end to end in seconds.
type scale struct {
	entries    int // registry entries for serve-read and publish-watch
	rate       int // publish-watch upserts per second
	simNodes   int // converge population
	simSeconds int // converge simulated seconds
	warmSecs   int // converge set-up: simulated seconds of the warm-up call
	setupReps  int // set-ups per run; setup_s is their median
	checkEvery int // serve-read keeps every checkEvery-th answer for checking
}

var fullScale = scale{
	entries:    100_000,
	rate:       1000,
	simNodes:   256,
	simSeconds: 1800,
	warmSecs:   600,
	setupReps:  5,
	checkEvery: 64,
}

var tinyScale = scale{
	entries:    3000,
	rate:       400,
	simNodes:   24,
	simSeconds: 300,
	warmSecs:   60,
	setupReps:  1,
	checkEvery: 8,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, work: workDir, scale: fullScale}
	if err := o.validate(*traceFlag); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	// A stack that stops answering would hang the run; give up instead.
	limit := 90*time.Second + 8*time.Duration(o.seconds)*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: no result after %v, giving up\n", limit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	res, err := execute(o, stdout)
	if err == nil {
		err = finite(res.Metrics)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// finite rejects a result holding a value JSON cannot carry, which
// means a metric had nothing to measure.
func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v): nothing was measured", name, v.Value)
		}
	}
	return nil
}

func (o options) validate(traceFlag int) error {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return fmt.Errorf("--seconds %d, want >= 1", o.seconds)
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("--trace %d, want 0 or 1", traceFlag)
	}
	return nil
}

// execute runs the invocation and returns its result; header lines go
// to out before it.
func execute(o options, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, fmt.Errorf("work directory: %w", err)
	}
	printHeader(out, o)
	if o.trace {
		return runTraced(o, out)
	}
	return runTimed(o, out)
}

// warmupRun is how long a workload runs unmeasured before it is
// measured.
const warmupRun = 500 * time.Millisecond

// workload is one traffic mix over the assembled system. setup builds
// the stack (closing any previous one), warmup exercises it unmeasured,
// run measures it for d with tr recording spans when non-nil, check
// compares the outputs of every run so far against independent
// computations, layers times direct calls into each layer the workload
// exercises, and close releases everything.
type workload interface {
	setup() error
	warmup() error
	run(d time.Duration, tr *tracer) (*runStats, error)
	check() error
	layers(tr *tracer, m map[string]metric) error
	close() error
}

func newWorkload(name string, o options) workload {
	switch name {
	case "serve-read":
		return newServeRead(o)
	case "publish-watch":
		return newPublishWatch(o)
	default:
		return newConverge(o)
	}
}

// runStats is what one measured run observed.
type runStats struct {
	primary   []float64 // µs per primary operation
	secondary []float64 // µs per secondary operation
	cpu       time.Duration
	items     float64 // units of work cpu is divided by
	attempted int64
	failed    int64
	heap      float64 // median live heap, bytes
	notes     []string
}

// runTimed is the untraced run: repeated set-up, then one measured
// run, then the output checks. Only it reports end-to-end metrics.
// heap_mb leaves out the live heap the benchmark's own inputs hold
// before the first set-up.
func runTimed(o options, out io.Writer) (result, error) {
	w := newWorkload(o.workload, o)
	defer w.close()
	inputs := liveHeap()
	var setups []float64
	for i := 0; i < o.scale.setupReps; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := w.warmup(); err != nil {
		return result{}, fmt.Errorf("%s warm-up: %w", o.workload, err)
	}
	runtime.GC()
	rs, err := w.run(time.Duration(o.seconds)*time.Second, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s run: %w", o.workload, err)
	}
	correct := reportCheck(out, o.workload, w.check())
	if err := w.close(); err != nil {
		return result{}, fmt.Errorf("%s close: %w", o.workload, err)
	}
	for _, n := range rs.notes {
		fmt.Fprintf(out, "# %s: %s\n", o.workload, n)
	}
	fmt.Fprintf(out, "# %s: primary %s\n", o.workload, tailNote(rs.primary))
	fmt.Fprintf(out, "# %s: secondary %s\n", o.workload, tailNote(rs.secondary))
	fmt.Fprintf(out, "# %s: set-ups %v s\n", o.workload, setups)
	fmt.Fprintf(out, "# %s: live heap %.1f MB during the run, %.1f MB of it the benchmark's inputs\n", o.workload, rs.heap/(1<<20), inputs/(1<<20))
	fmt.Fprintf(out, "# %s: attempted %d failed %d\n", o.workload, rs.attempted, rs.failed)
	return result{
		Correct:   correct,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"heap_mb":          {(rs.heap - inputs) / (1 << 20), "MB"},
			"primary_p50_us":   {median(rs.primary), "us"},
			"secondary_p50_us": {median(rs.secondary), "us"},
			"cpu_us_per_item":  {float64(rs.cpu.Microseconds()) / rs.items, "us"},
		},
	}, nil
}

// runTraced is the traced run. Every workload is set up once and run
// with spans recorded around each call the benchmark makes into the
// program, then its layer suite times direct calls into each layer; the
// named workload additionally runs untraced first, for the same length,
// so the tracing overhead is measured on it.
func runTraced(o options, out io.Writer) (result, error) {
	tr := newTracer()
	m := map[string]metric{}
	res := result{Correct: true, Metrics: m}
	for _, name := range workloadNames {
		w := newWorkload(name, o)
		if err := tracedWorkload(o, name, w, tr, m, &res, out); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s traced: %w", name, err)
		}
		if err := w.close(); err != nil {
			return result{}, fmt.Errorf("%s close: %w", name, err)
		}
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# trace: %d spans recorded, %d written to %s\n", tr.recorded, len(tr.spans), path)
	return res, nil
}

func tracedWorkload(o options, name string, w workload, tr *tracer, m map[string]metric, res *result, out io.Writer) error {
	if err := w.setup(); err != nil {
		return err
	}
	if err := w.warmup(); err != nil {
		return err
	}
	runtime.GC()
	d := time.Duration(o.seconds) * time.Second / 2
	if name != o.workload {
		d = 2 * time.Second
	}
	var untraced *runStats
	if name == o.workload {
		var err error
		if untraced, err = w.run(d, nil); err != nil {
			return err
		}
	}
	traced, err := w.run(d, tr)
	if err != nil {
		return err
	}
	for _, n := range traced.notes {
		fmt.Fprintf(out, "# %s (traced): %s\n", name, n)
	}
	if untraced != nil {
		base := median(untraced.primary)
		m["trace.overhead_pct"] = metric{(median(traced.primary) - base) / base * 100, "%"}
	}
	if name == o.workload {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	if err := w.layers(tr, m); err != nil {
		return err
	}
	if !reportCheck(out, name, w.check()) {
		res.Correct = false
	}
	return nil
}

// reportCheck prints a check's outcome and reports whether it passed.
func reportCheck(out io.Writer, name string, err error) bool {
	if err != nil {
		fmt.Fprintf(out, "# %s: CHECK FAILED: %v\n", name, err)
		return false
	}
	fmt.Fprintf(out, "# %s: checks passed\n", name)
	return true
}

func printHeader(out io.Writer, o options) {
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d mode=%s nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		o.workload, o.seed, o.seconds, mode, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errCheck marks a failed output check.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
