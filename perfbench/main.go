// Command perfbench is the repository's benchmark: one in-process
// program that builds the serving stack the way cmd/adaptserve does,
// drives it over loopback NBD, and replays the paper's simulator path.
//
//	perfbench --workload nbd-qd1-mixed --seed 1 --seconds 10 --trace 0
//
// It prints every metric with its unit and sample count, then, as the
// last line, one JSON object: the end-to-end metrics with --trace 0, or
// the per-layer metrics of a traced run with --trace 1. A traced run
// spends half its time untraced and half traced, so the tracing
// overhead is the throughput difference between the two halves. Any
// failed request, byte mismatch, determinism break or recovery that
// disagrees with the live store makes the run exit non-zero. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"adapt/internal/segfile"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. Tail
// latencies are measured too but are not in this list: on a 2-CPU Xeon
// VM ten seeds spread QD1's write p99 by 26% of its median and five
// spread the simulator's read p999 by 24%, wider than a regression
// gate's bound can be, so they are per-layer client.* metrics of the
// traced run instead.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"write_p50_us", "us"},
	{"read_p50_us", "us"},
	{"wa", "ratio"}, {"padding_ratio", "ratio"},
	{"setup_s", "s"}, {"peak_rss_mib", "MiB"},
}

// tailMetrics are printed by every untraced run but stay out of its
// result line.
var tailMetrics = []metricDef{
	{"write_p99_us", "us"}, {"write_p999_us", "us"},
	{"read_p99_us", "us"}, {"read_p999_us", "us"},
}

// layerMetrics are reported by every workload with --trace 1; a layer
// a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"client.write_p99_us", "us"}, {"client.write_p999_us", "us"},
	{"client.read_p99_us", "us"}, {"client.read_p999_us", "us"},
	{"client.unaccounted_p50_us", "us"},
	{"client.flush_p99_us", "us"},
	{"client.traced_ops_per_s", "1/s"},
	{"client.trace_overhead_frac", "ratio"},
	{"nbd.self_p50_us", "us"}, {"nbd.self_p99_us", "us"},
	{"nbd.queue_p99_us", "us"},
	{"nbd.rmw_per_write", "ratio"},
	{"server.acquire_wait_p99_us", "us"},
	{"server.write_p50_us", "us"}, {"server.write_p99_us", "us"},
	{"server.read_p50_us", "us"},
	{"server.flush_p99_us", "us"},
	{"server.write_self_p50_us", "us"},
	{"server.writes_per_engine_call", "ratio"},
	{"engine.write_p50_us", "us"}, {"engine.write_p99_us", "us"},
	{"engine.read_p50_us", "us"},
	{"engine.lock_wait_p99_us", "us"}, {"engine.lock_wait_p999_us", "us"},
	{"engine.device_wait_p99_us", "us"},
	{"engine.shard_skew", "ratio"},
	{"engine.tail_lock_share", "ratio"},
	{"engine.tail_lock_untraced_share", "ratio"},
	{"device.chunks_per_user_block", "ratio"},
	{"lss.gc_cycles", "count"},
	{"lss.gc_blocks_per_user_block", "ratio"},
	{"lss.padded_chunk_frac", "ratio"},
	{"lss.shadow_blocks_per_user_block", "ratio"},
	{"lss.replay_s", "s"},
	{"placement.place_user_ns_mean", "ns"},
	{"placement.place_gc_ns_mean", "ns"},
	{"adaptcore.shadow_grants", "count"},
	{"adaptcore.demotions", "count"},
	{"workload.gen_s", "s"},
	{"gcsched.slices", "count"},
	{"gcsched.emergency_runs", "count"},
	{"segfile.fsyncs_per_kwrite", "ratio"},
	{"segfile.bytes_per_user_byte", "ratio"},
	{"segfile.fsync_p99_us", "us"},
	{"segfile.recovered_segments", "count"},
	{"segfile.recover_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.tail_gc_share", "ratio"},
}

// report collects one run's results.
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	counts            map[string]int64
	text              strings.Builder
}

func newReport() *report {
	return &report{values: make(map[string]float64), counts: make(map[string]int64)}
}

// set records a metric and how many samples it summarizes.
func (r *report) set(name string, v float64, n int64) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(&r.text, format, args...) }

type runFunc func(rep *report, seed uint64, dur time.Duration, traced bool) error

var workloads = map[string]runFunc{
	"nbd-qd1-mixed":   nbdRunner("nbd-qd1-mixed"),
	"nbd-qd8-rmw":     nbdRunner("nbd-qd8-rmw"),
	"sim-ali-adapt":   simRunner("sim-ali-adapt", false),
	"sim-ali-durable": simRunner("sim-ali-durable", true),
}

// scratchDir is where a run keeps its files: the build directory the
// wrapper script uses, inside the checkout.
func scratchDir() string {
	d := os.Getenv("PERFBENCH_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return d
}

func main() {
	name := flag.String("workload", "", "workload: nbd-qd1-mixed | nbd-qd8-rmw | sim-ali-adapt | sim-ali-durable")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if strings.HasPrefix(*name, "sim-") {
		// The simulator replays in one goroutine. On one P the Go GC's
		// mark work runs on the replay's CPU too, so the figures count
		// all the CPU a replay costs, allocation included, and do not
		// depend on whether the host's other CPUs are free.
		runtime.GOMAXPROCS(1)
	}
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// A stalled connection must not hang the run past its time limit
	// (150 s at 25 measured seconds; such a run takes about 28, a traced
	// nbd-qd8-rmw run about 60).
	time.AfterFunc(time.Duration(*seconds)*2*time.Second+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	if err := os.MkdirAll(scratchDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHost()

	rep := newReport()
	if err := run(rep, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.set("peak_rss_mib", peakRSSMiB(), 1)
	fmt.Print(rep.text.String())

	defs, more := e2eMetrics, tailMetrics
	if *traced == 1 {
		defs, more = layerMetrics, nil
	}
	fmt.Printf("%-36s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && *traced == 0 {
			rep.problem("metric %s was not measured", d.name)
		}
		fmt.Printf("%-36s %14.4f  %-6s %d\n", d.name, v, d.unit, rep.counts[d.name])
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, d := range more {
		if v, ok := rep.values[d.name]; ok {
			fmt.Printf("%-36s %14.4f  %-6s %d  (not in the result line)\n", d.name, v, d.unit, rep.counts[d.name])
		}
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printHost stamps the result with the machine it ran on.
func printHost() {
	host := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"device_time_ns": deviceTime.Nanoseconds(),
		"fscap":          segfile.Probe(scratchDir()),
		"scratch":        filepath.Clean(scratchDir()),
	}
	b, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
