// Command perfbench is the repository's benchmark. It drives the SAC
// system through its public entry points (core.Session,
// jobs.ClusterSession, server.Server over HTTP) on one named workload,
// checks every result, and prints one JSON object as the last line of
// standard output:
//
//	go run . --workload local-fig4 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it alternates untraced and traced ops
// (on serve-mix, in-process passes beside untraced HTTP ops), runs the
// layer probes, and reports the per-layer metrics. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// report is what a workload hands back: op and setup samples plus the
// per-layer values it measured.
type report struct {
	setups    []float64 // seconds per full set-up (trace 0 only)
	opsMs     []float64 // untraced op times
	tracedMs  []float64 // traced op times (trace 1 only)
	elapsed   time.Duration
	attempted int
	failed    int
	// samples holds per-op values of per-layer metrics (reported as
	// medians); layer holds values measured once.
	samples map[string][]float64
	layer   map[string]float64
}

func newReport() *report {
	return &report{samples: map[string][]float64{}, layer: map[string]float64{}}
}

// fail records one failed op and says why on standard error.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
}

var workloads = map[string]func(runConfig) (*report, error){
	"local-fig4":      runLocalFig4,
	"cluster-shuffle": runClusterShuffle,
	"serve-mix":       runServeMix,
}

// endToEnd and perLayer list every metric the benchmark prints, with
// its unit; BENCHMARK.json at the repository root names the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"error_rate", "ratio"},
	{"add_ms", "ms"},
	{"matmul_gbj_ms", "ms"},
	{"matmul_joingb_ms", "ms"},
	{"factor_step_ms", "ms"},
	{"contract_generic_ms", "ms"},
	{"transpose_ms", "ms"},
	{"sacparser.parse_us", "us"},
	{"plan.compile_us", "us"},
	{"server.plan_hit_rate", "ratio"},
	{"server.queued", "count"},
	{"server.rejected", "count"},
	{"server.write_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"dataflow.tasks", "count"},
	{"dataflow.stages", "count"},
	{"dataflow.stage_wall_ms", "ms"},
	{"dataflow.task_skew", "ratio"},
	{"dataflow.max_concurrent_stages", "count"},
	{"dataflow.shuffled_mib", "MiB"},
	{"dataflow.tile_pool_hit_rate", "ratio"},
	{"dataflow.task_us", "us"},
	{"tiled.gbj_replication", "ratio"},
	{"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.add_gibps", "GiB/s"},
	{"linalg.kernel_ms", "ms"},
	{"linalg.kernel_share", "ratio"},
	{"spill.encode_mibps", "MiB/s"},
	{"spill.decode_mibps", "MiB/s"},
	{"spill.compress_mibps", "MiB/s"},
	{"spill.decompress_mibps", "MiB/s"},
	{"spill.compress_ratio", "ratio"},
	{"spill.spilled_mib", "MiB"},
	{"spill.files", "count"},
	{"spill.merge_passes", "count"},
	{"spill.span_ms", "ms"},
	{"memory.waits", "count"},
	{"memory.overcommits", "count"},
	{"memory.peak_mib", "MiB"},
	{"cluster.wire_mib", "MiB"},
	{"cluster.wire_raw_mib", "MiB"},
	{"cluster.chunks", "count"},
	{"cluster.conn_pool_hit_rate", "ratio"},
	{"cluster.remote_fetches", "count"},
	{"cluster.fetch_retries", "count"},
	{"cluster.fetch_failures", "count"},
	{"cluster.resubmissions", "count"},
	{"cluster.rank_wall_ms", "ms"},
	{"cluster.straggler_ratio", "ratio"},
	{"jobs.driver_overhead_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.self_bench_ms", "ms"},
	{"trace.self_execute_ms", "ms"},
	{"trace.self_stage_ms", "ms"},
	{"trace.self_task_ms", "ms"},
	{"trace.self_kernel_ms", "ms"},
	{"trace.self_spill_ms", "ms"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: local-fig4, cluster-shuffle or serve-mix")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced ops and layer probes and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if rep.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no op ran\n", *workload)
		os.Exit(1)
	}
	out := output{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	if cfg.traced {
		finishTraced(rep)
		for _, m := range perLayer {
			out.Metrics[m.name] = metricOut{rep.layer[m.name], m.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":      median(rep.setups),
			"op_p50_ms":    median(rep.opsMs),
			"peak_rss_mib": peakRSSMiB(),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
	}
	for _, m := range perLayer {
		if xs := rep.samples[m.name]; len(xs) > 0 && strings.HasSuffix(m.name, "_ms") {
			fmt.Fprintf(os.Stderr, "perfbench: %s median %.3f ms over %d samples\n", m.name, median(xs), len(xs))
			if len(xs) <= 100 {
				fmt.Fprintf(os.Stderr, "perfbench:   %.1f\n", xs)
			}
		}
	}
	if len(rep.setups) > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.3f\n", rep.setups)
	}
	fmt.Fprintf(os.Stderr, "perfbench: op ms p10 %.3f p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
		percentile(rep.opsMs, 0.1), median(rep.opsMs), percentile(rep.opsMs, 0.9), percentile(rep.opsMs, 0.99), percentile(rep.opsMs, 1))
	if len(rep.opsMs) <= 100 {
		fmt.Fprintf(os.Stderr, "perfbench: op times (ms): %.1f\n", rep.opsMs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d untraced and %d traced ops measured, %d attempted, %d failed, %d set-ups\n",
		*workload, len(rep.opsMs), len(rep.tracedMs), rep.attempted, rep.failed, len(rep.setups))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finishTraced fills the metrics every traced run derives the same way:
// sample medians, the error rate, throughput and, where the run
// alternated traced and untraced ops, the tracing overhead. serve-mix
// sets the overhead itself, from in-process passes.
func finishTraced(rep *report) {
	for name, xs := range rep.samples {
		rep.layer[name] = median(xs)
	}
	rep.layer["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	// Traced ops count too; trace.overhead_frac says how much they cost.
	rep.layer["ops_per_s"] = float64(len(rep.opsMs)+len(rep.tracedMs)) / rep.elapsed.Seconds()
	if len(rep.tracedMs) > 0 {
		setOverhead(rep, rep.tracedMs, rep.opsMs)
	}
}

// setOverhead reports the traced p50 and its excess over the untraced
// p50 as trace.overhead_frac.
func setOverhead(rep *report, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	rep.layer["trace.traced_op_p50_ms"] = t
	if u > 0 {
		rep.layer["trace.overhead_frac"] = t/u - 1
	}
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetups builds the workload reps times and returns each build's
// seconds and the last instance; earlier ones are closed and collected
// so they do not inflate the next build or the peak RSS.
func timedSetups[W interface{ close() }](reps int, build func() (W, error)) ([]float64, W, error) {
	var (
		times []float64
		w     W
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		next, err := build()
		if err != nil {
			return nil, w, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			next.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		w = next
	}
	return times, w, nil
}

// setupReps is how many times a run builds its workload: reps for a
// trace-0 run, which reports the median set-up time, and once for a
// traced run.
func setupReps(cfg runConfig, reps int) int {
	if cfg.traced {
		return 1
	}
	return reps
}

// median and percentile use linear interpolation between order
// statistics; they return 0 for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seedFor derives the i-th input seed of a run (splitmix64), so inputs
// depend only on --seed.
func seedFor(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
