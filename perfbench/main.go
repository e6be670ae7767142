// Command perfbench is the repository benchmark. It runs one workload
// against the program built from this checkout and prints every metric
// with its unit, sample count and statistic, then, as its last line, one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off; with -trace 1 a separate traced run reports the per-layer
// set. Inputs are generated from -seed; the program receives only those
// inputs. perfbench/run.py builds this command and the deepn-jpeg
// binary and runs it:
//
//	python3 perfbench/run.py --workload decode-train --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer list every metric the benchmark reports, with
// its unit. They match BENCHMARK.json (a test holds them equal).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mpix_s", "Mpix/s"},
	{"stdlib_ratio", "x"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rate_max_rps", "req/s"},
	{"compression_ratio", "x"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"pipeline.batch_ms", "ms"},
	{"pipeline.worker_busy_share", "share"},
	{"jpegcodec.decode_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.decode_residual_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.entropy_mb_s", "MB/s"},
	{"jpegcodec.rgb_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.requantize_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.encode_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.encode_residual_ms_per_mpix", "ms/Mpix"},
	{"jpegcodec.parse_us_per_item", "us"},
	{"dct.inverse_ms_per_mpix", "ms/Mpix"},
	{"dct.forward_ms_per_mpix", "ms/Mpix"},
	{"qtable.dequantize_ms_per_mpix", "ms/Mpix"},
	{"imgutil.upsample_ms_per_mpix", "ms/Mpix"},
	{"imgutil.ycc_to_rgb_ms_per_mpix", "ms/Mpix"},
	{"imgutil.rgb_to_ycc_ms_per_mpix", "ms/Mpix"},
	{"imgutil.downsample_ms_per_mpix", "ms/Mpix"},
	{"server.rtt_ms.requantize", "ms"},
	{"server.rtt_ms.decode", "ms"},
	{"server.rtt_ms.encode", "ms"},
	{"server.rtt_ms.batch", "ms"},
	{"server.overhead_ms.requantize", "ms"},
	{"server.overhead_ms.decode", "ms"},
	{"server.overhead_ms.encode", "ms"},
	{"server.overhead_ms.batch", "ms"},
	{"server.requests", "count"},
	{"server.rejected", "count"},
	{"server.failures", "count"},
	{"server.bytes_in", "bytes"},
	{"server.bytes_out", "bytes"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"core.calibrate_s", "s"},
	{"profile.load_ms", "ms"},
	{"server.boot_ms", "ms"},
	{"runtime.alloc_kb_per_mpix", "KB/Mpix"},
	{"runtime.gc_cpu_share", "share"},
	{"jpegcodec.blocks", "count"},
	{"jpegcodec.scans", "count"},
	{"jpegcodec.restart_segments", "count"},
	{"jpegcodec.entropy_bytes", "bytes"},
	{"jpegcodec.out_bytes", "bytes"},
	{"trace.overhead_share", "share"},
	{"error_rate", "share"},
}

type metricDef struct{ name, unit string }

var workloads = map[string]func(*env) error{
	"requantize-archive": runArchive,
	"decode-train":       runTrain,
	"encode-edge":        runEdge,
	"serve-mixed":        runServe,
}

// env is one benchmark run.
type env struct {
	workload  string
	seed      int64
	dur       time.Duration
	trace     bool
	root      string // repository root (the checkout)
	serverBin string // deepn-jpeg binary built from the checkout
	workDir   string // scratch space inside the checkout
	spec      string // recorded input digests
	rep       *report
}

func main() {
	e := &env{rep: newReport()}
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "repository root")
	flag.StringVar(&e.serverBin, "server-bin", ".bench_build/bin/deepn-jpeg", "deepn-jpeg binary (serve-mixed)")
	flag.StringVar(&e.workDir, "work-dir", ".bench_build/work", "scratch directory")
	flag.StringVar(&e.spec, "spec", "perfbench/spec.json", "recorded input digests")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	e.workload, e.seed, e.trace = *workload, *seed, *trace == 1
	e.dur = time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHost()
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	set := endToEnd
	if e.trace {
		set = perLayer
	}
	if err := e.rep.print(os.Stdout, set, !e.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printHost() {
	amd64 := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				amd64 = s.Value
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d GOAMD64=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), amd64, runtime.Version())
}

// report collects metric values, notes and the checks' verdicts.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	problems  []string // distinct failure reasons, first few kept
	invalid   []string // cross-check violations that make the run incorrect
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric with a note naming its sample count and
// statistic.
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// check counts one attempted operation and, when err is non-nil, one
// failure.
func (r *report) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
}

// invalidate marks the run incorrect without it being an operation.
func (r *report) invalidate(format string, a ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, a...))
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes one line per metric of the set and the JSON result.
// With strict, every metric must have been measured; otherwise a
// per-layer metric the workload does not exercise reads 0, because no
// work reached that layer.
func (r *report) print(w io.Writer, set []metricDef, strict bool) error {
	r.set("error_rate", r.errorRate(), fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	fmt.Fprintf(w, "error_rate = %.6g (%d failed of %d attempted)\n", r.errorRate(), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "failure:", p)
	}
	for _, p := range r.invalid {
		fmt.Fprintln(w, "invalid:", p)
	}
	metrics := make(map[string]map[string]any, len(set))
	var missing []string
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok {
			if strict {
				missing = append(missing, m.name)
				continue
			}
			r.notes[m.name] = "layer not exercised by this workload"
		}
		fmt.Fprintf(w, "metric %-40s %14.6g %-8s %s\n", m.name, v, m.unit, r.notes[m.name])
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload reported no %s", strings.Join(missing, ", "))
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && len(r.invalid) == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// inputDigests prints the run's input digests and compares them with
// the ones recorded for this seed, so changed inputs are reported as
// such instead of being compared silently.
func (e *env) inputDigests(all, repo string) {
	fmt.Printf("inputs_sha256: %s\nrepo_encoded_inputs_sha256: %s\n", all, repo)
	var spec struct {
		Digests map[string]map[string]struct{ All, Repo string } `json:"input_digests"`
	}
	data, err := os.ReadFile(e.spec)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	rec, ok := spec.Digests[e.workload][fmt.Sprint(e.seed)]
	switch {
	case err != nil:
		fmt.Printf("inputs: no digest record (%v)\n", err)
	case !ok:
		fmt.Printf("inputs: no digest recorded for seed %d\n", e.seed)
	case rec.All == all && rec.Repo == repo:
		fmt.Println("inputs: identical to the recorded digest")
	case rec.All != all && rec.Repo != repo:
		fmt.Println("inputs: CHANGED (all inputs, including those from this module's encoder) — results are not comparable with the recorded baseline")
	case rec.Repo != repo:
		fmt.Println("inputs: CHANGED (inputs from this module's encoder) — results are not comparable with the recorded baseline")
	default:
		fmt.Println("inputs: CHANGED (image/jpeg-made inputs) — results are not comparable with the recorded baseline")
	}
}
