// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the engine on real-file devices (VATS with Lazy LRU,
// eager flush), checks the results, and prints one JSON line of metrics
// as its last line of output. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
//	e2ebench --workload tpcc|kv_read|kv_write --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vats/internal/stats"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dataRoot string
	gitSHA   string
	nextDir  int
}

// instanceDir returns a fresh directory for the next engine instance.
func (o *options) instanceDir() string {
	o.nextDir++
	return filepath.Join(o.dataRoot, fmt.Sprintf("instance%03d", o.nextDir))
}

// result is what a workload run measured and checked.
type result struct {
	setups    []float64  // seconds, one per engine set-up
	lat       *intervals // ms, every transaction of the measured windows
	committed int64
	measured  time.Duration // wall time of the measured windows
	attempted int64
	failed    int64
	maxTPS    float64
	tracedP50 float64 // ms, p50 of the traced windows
	win       window
	checks    []error            // correctness failures
	layers    map[string]float64 // traced runs only
}

func (r *result) addLat(iv *intervals) {
	if r.lat == nil {
		r.lat = iv
		return
	}
	r.lat.merge(iv)
}

func (r *result) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*options) (*result, error){
	"tpcc":     runTPCC,
	"kv_read":  func(o *options) (*result, error) { return runKV(o, kvRead) },
	"kv_write": func(o *options) (*result, error) { return runKV(o, kvWrite) },
}

func main() {
	o := &options{}
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "tpcc, kv_read or kv_write")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.dataRoot, "data", filepath.Join(".bench_build", "e2ebench-data"), "directory for the engine's files")
	flag.StringVar(&o.gitSHA, "git-sha", "unknown", "commit the benchmark was built from")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload tpcc|kv_read|kv_write, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	o.dataRoot = filepath.Join(o.dataRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	code := runAndReport(o, run, os.Stdout)
	os.RemoveAll(o.dataRoot)
	os.Exit(code)
}

// runAndReport runs the workload, prints the host stamp and the result
// line to stdout, and returns the exit code: nonzero when the run failed
// or any correctness check did.
func runAndReport(o *options, run func(*options) (*result, error), stdout io.Writer) int {
	st := hostStamp(o)
	heap := startHeapSampler(20 * time.Millisecond)
	res, err := run(o)
	heapPeaks := heap.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	if res.lat != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: measured interval p99s %s ms, pooled p99 %.3f ms\n",
			res.lat.describe(p99), p99(res.lat.all()))
	}
	stamp, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stamp)
	for _, c := range res.checks {
		fmt.Fprintf(os.Stderr, "e2ebench: correctness check failed: %v\n", c)
	}
	out := output{
		Correct:   len(res.checks) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		for name, v := range tracedLatency(res, heapPeaks) {
			res.layers[name] = v
		}
		for name, v := range res.layers {
			out.Metrics[name] = metric{v, layerUnit(name)}
		}
	} else {
		out.Metrics = endToEnd(res, heapPeaks)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	if res.attempted == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: no transactions attempted")
		return 1
	}
	return 0
}

// endToEnd computes the gated metrics a user of the system sees: the
// ones that repeat from run to run on a shared host (see README.md).
// Set-up time is the fastest of the run's set-ups, which leaves out the
// host's stalls; CPU time is the process's, user plus system, over the
// measured windows.
func endToEnd(r *result, heapPeaks []float64) map[string]metric {
	txns := float64(r.committed)
	return map[string]metric{
		"setup_s":             {stats.Percentile(r.setups, 0), "s"},
		"cpu_us_per_txn":      {ratio(float64(r.win.cpu)/1e3, txns), "us"},
		"allocs_per_txn":      {ratio(float64(r.win.mallocs), txns), "count"},
		"alloc_bytes_per_txn": {ratio(float64(r.win.allocBytes), txns), "B"},
		"peak_heap_mb":        {stats.Percentile(heapPeaks, 0.5) / (1 << 20), "MB"},
	}
}

// tracedLatency computes the latency and capacity figures a traced run
// reports next to the layers. They come from the run's untraced windows
// (tracing off), and are reported ungated because on a shared host they
// move with the neighbours' disk and CPU load from run to run.
func tracedLatency(r *result, heapPeaks []float64) map[string]float64 {
	p50 := stats.Percentile(r.lat.all(), 0.5)
	return map[string]float64{
		"tps":                   ratio(float64(r.committed), r.measured.Seconds()),
		"p50_ms":                p50,
		"p99_ms":                r.lat.median(p99),
		"sd_ms":                 r.lat.median(stddev),
		"max_tps_at_slo":        r.maxTPS,
		"fail_frac":             ratio(float64(r.failed), float64(r.attempted)),
		"latency.samples":       float64(r.lat.count()),
		"latency.pooled_p99_ms": p99(r.lat.all()),
		"runtime.heap_max_mb":   stats.Percentile(heapPeaks, 1) / (1 << 20),
		"trace.overhead_frac":   ratio(r.tracedP50, p50) - 1,
	}
}
