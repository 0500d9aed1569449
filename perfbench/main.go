// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the real public surfaces — Engine.Query on the library
// path, a built decorrd driven through decorr/driver on the served path —
// checks every result against the nested-iteration (NI) oracle, and
// prints one JSON line of metrics as the last line of standard output.
//
//	bash perfbench/run.sh --workload analytic --seed 1 --seconds 10 --trace 0
//
// run.sh builds decorrd and this program from the checkout first. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
// run records the benchmark's own spans around every call into a layer
// and reports the per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// The metrics, in the order BENCHMARK.json lists them. A run fails rather
// than print a result that misses one or adds another.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"qps", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
	{"ttfr_p50_ms", "ms"}, {"rows_per_s", "1/s"}, {"peak_heap_mb", "MiB"},
}

var figNames = []string{"fig5", "fig6", "fig7", "fig8", "fig9"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"parser.parse_us", "us"}, {"semant.bind_us", "us"}, {"rewrite.cleanup_us", "us"},
		{"core.decorrelate_us", "us"}, {"exec.estimate_us", "us"}, {"engine.prepare_us", "us"},
		{"engine.overhead_us", "us"},
	}
	for _, f := range figNames {
		defs = append(defs, metricDef{"plan.chosen_vs_best." + f, "ratio"})
	}
	for _, m := range []metricDef{{"exec.run_ms", "ms"}, {"exec.work", "count"},
		{"exec.subquery_invocations", "count"}, {"exec.batch_collapse", "ratio"},
		{"exec.hash_builds", "count"}, {"exec.alloc_kb", "KiB"}} {
		for _, f := range figNames {
			defs = append(defs, metricDef{m.name + "." + f, m.unit})
		}
	}
	return append(defs,
		metricDef{"plancache.hit_ratio", "ratio"}, metricDef{"plancache.evictions_per_op", "count"},
		metricDef{"plancache.get_us", "us"},
		metricDef{"tpcd.generate_s", "s"}, metricDef{"storage.warm_s", "s"},
		metricDef{"stage.parse_us", "us"}, metricDef{"stage.rewrite_us", "us"},
		metricDef{"stage.decorrelate_us", "us"}, metricDef{"stage.exec_us", "us"},
		metricDef{"server.sheds", "count"}, metricDef{"server.sessions_refused", "count"},
		metricDef{"wire.frames_per_query", "count"}, metricDef{"wire.bytes_per_row", "B"},
		metricDef{"wire.encode_ns_per_row", "ns"}, metricDef{"wire.decode_ns_per_row", "ns"},
		metricDef{"driver.query_us", "us"}, metricDef{"driver.next_ns_per_row", "ns"},
		metricDef{"driver.retries", "count"},
		metricDef{"loadgen.send_delay_p99_ms", "ms"}, metricDef{"loadgen.op_self_us", "us"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state: configuration, the correctness tally,
// the span recorder (nil when untraced), and the metrics reported.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // checkout root; scratch files go under .bench_build
	decorrd  string // path to the built decorrd binary

	rec *recorder

	attempted, failed atomic.Int64
	reqs              atomic.Int64
	logMu             sync.Mutex
	logged            int

	metrics map[string]metric
}

// metric records a value; its unit comes from the metric's definition.
// An undefined name is caught by checkMetricNames before anything prints.
func (b *bench) metric(name string, value float64) {
	b.metrics[name] = metric{Value: value, Unit: unitOf[name]}
}

// nextReq allocates a request ID for span grouping.
func (b *bench) nextReq() int64 { return b.reqs.Add(1) }

// check tallies one operation: it fails when the call errored or the
// result differs from the oracle's. The first few failures are logged.
func (b *bench) check(what string, got digest, err error, want digest, ok bool) {
	b.attempted.Add(1)
	switch {
	case err != nil:
	case !ok:
		err = fmt.Errorf("no oracle result")
	case got != want:
		err = fmt.Errorf("wrong result: got %+v, oracle %+v", got, want)
	default:
		return
	}
	b.failed.Add(1)
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.logged < 10 {
		b.logged++
		logf("FAILED %s: %v", trunc(what, 80), err)
	}
}

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// scratchPath names a file under the checkout's .bench_build directory.
func (b *bench) scratchPath(name string) (string, error) {
	dir := filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "analytic | served-mix | served-stream")
	seed := flag.Int64("seed", 1, "seed for data generation and the op sequence")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	decorrd := flag.String("decorrd", "", "path to the built decorrd binary (served workloads)")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		logf("--seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, traced: *traceFlag == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		root:    *root, decorrd: *decorrd, metrics: map[string]metric{},
	}
	if b.traced {
		b.rec = newRecorder()
	}
	var err error
	switch b.workload {
	case "analytic":
		err = runAnalytic(b)
	case "served-mix":
		err = runServedMix(b)
	case "served-stream":
		err = runServedStream(b)
	default:
		err = fmt.Errorf("unknown --workload %q (want analytic, served-mix, or served-stream)", b.workload)
	}
	if err == nil {
		err = b.checkMetricNames()
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	out, err := json.Marshal(result{
		Correct:   b.failed.Load() == 0 && b.attempted.Load() > 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   b.metrics,
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// checkMetricNames enforces that the run reports exactly the metric set
// of its mode.
func (b *bench) checkMetricNames() error {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	var missing, extra []string
	wantSet := map[string]bool{}
	for _, d := range want {
		wantSet[d.name] = true
		if _, ok := b.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	for n := range b.metrics {
		if !wantSet[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}
