package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	deepnjpeg "repro"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
)

// inproc is a closed-loop workload that calls the library in this
// process. A pass runs one batch of items; batches are fixed when the
// inputs are made, so every pass over batch b does the same work.
type inproc interface {
	batches() int
	mpix(b int) float64
	// ours runs the public call(s) on batch b with tracing off and
	// returns the pass's wall time and the latency of each public call.
	ours(b int) (time.Duration, []float64)
	// twin runs the image/jpeg equivalent of the pass on the same items
	// at the same concurrency.
	twin(b int) time.Duration
	// verify checks the outputs of the last pass over batch b.
	verify(b int, rep *report)
	// traced runs the pass as the facade composes it, from the lower
	// layers' public functions, with a span around every call; it returns
	// the pass's wall time.
	traced(tr *tracer, b int) time.Duration
	// replay re-runs lower layers on batch b's items off the blocking
	// path and records their spans. It adds b's item counts to c the
	// first time it sees b.
	replay(tr *tracer, b int, c *counts)
	compression() float64
	outputDigest() string
	// single runs item i of batch b alone through the workload's
	// single-item public call and checks the output against the item's
	// reference. Workloads whose public call is already one item report
	// no single-item path (items returns 0).
	single(b, i int, rep *report) time.Duration
	items(b int) int
}

// counts are the traced run's work counts over the distinct items, plus
// the entropy-coded bytes of every replayed (so every traced) item.
type counts struct {
	seen                                  map[int]bool
	blocks, scans, restarts, entropy, out float64
	replayedEntropy                       float64
}

// calibrateSetup is the set-up of every in-process workload:
// deepnjpeg.Calibrate with the zero-value config on the seeded SynthNet
// calibration set, repeated so setup_s is a median.
const setupRepeats = 15

func calibrateSetup(e *env) (*deepnjpeg.Codec, []*imgutil.RGB, []int, error) {
	imgs, labels, err := calibrationSet(e.seed, 64, 48)
	if err != nil {
		return nil, nil, nil, err
	}
	var codec *deepnjpeg.Codec
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		t0 := time.Now()
		c, err := deepnjpeg.Calibrate(imgs, labels, deepnjpeg.CalibrateConfig{})
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calibrate: %w", err)
		}
		codec = c
	}
	note := fmt.Sprintf("median of %d Calibrate runs on %d SynthNet images", setupRepeats, len(imgs))
	e.rep.set("setup_s", median(times), note)
	e.rep.set("core.calibrate_s", median(times), note)
	load, err := profileLoad(e, codec)
	if err != nil {
		return nil, nil, nil, err
	}
	e.rep.set("profile.load_ms", load, fmt.Sprintf("median of %d LoadProfile+NewCodecFromProfile", setupRepeats))
	return codec, imgs, labels, nil
}

// profileLoad saves the codec as a profile and times loading it back.
func profileLoad(e *env, codec *deepnjpeg.Codec) (float64, error) {
	path := filepath.Join(e.workDir, fmt.Sprintf("bench-%s-%d.dnp", e.workload, os.Getpid()))
	defer os.Remove(path)
	if err := codec.SaveProfile(path, deepnjpeg.ProfileMeta{Name: "bench", Version: 1}); err != nil {
		return 0, err
	}
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		p, err := deepnjpeg.LoadProfile(path)
		if err == nil {
			_, err = deepnjpeg.NewCodecFromProfile(p)
		}
		times = append(times, ms(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("profile round trip: %w", err)
		}
	}
	return median(times), nil
}

// quiesce collects garbage and restarts the peak-memory window, so the
// measured region starts from the same state on every run. An error
// means the window was not restarted.
func quiesce() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeak()
}

// warm runs every batch once through both paths untimed and verifies
// the outputs, which become the references later passes must match.
func warm(w inproc, rep *report) {
	for b := 0; b < w.batches(); b++ {
		w.ours(b)
		w.verify(b, rep)
		w.twin(b)
	}
}

// closedLoop measures the untraced end-to-end metrics: passes alternate
// which path runs first, so our path and its image/jpeg twin see the
// same host conditions.
func closedLoop(e *env, w inproc) {
	warm(w, e.rep)
	quiesce()
	// A workload whose public call is a batch spends latencyShare of the
	// run on a latency phase: its items one at a time through the
	// single-item public call on the same path, so the latency
	// percentiles rest on hundreds of items rather than a few dozen
	// batch calls.
	var single []float64
	var latDur time.Duration
	if w.items(0) > 0 {
		latDur = time.Duration(latencyShare * float64(e.dur))
	}
	start := time.Now()
	for p := 0; time.Since(start) < latDur; p++ {
		b := p % w.batches()
		for i := 0; i < w.items(b); i++ {
			single = append(single, ms(w.single(b, i, e.rep)))
		}
	}
	var rates, ratios, opRates, lat []float64
	start = time.Now()
	for p := 0; p == 0 || time.Since(start) < e.dur-latDur; p++ {
		b := p % w.batches()
		var o, t time.Duration
		var l []float64
		// Each side starts from a collected heap, so neither pays for the
		// other's garbage.
		if p%2 == 0 {
			runtime.GC()
			o, l = w.ours(b)
			runtime.GC()
			t = w.twin(b)
		} else {
			runtime.GC()
			t = w.twin(b)
			runtime.GC()
			o, l = w.ours(b)
		}
		w.verify(b, e.rep)
		rates = append(rates, w.mpix(b)/o.Seconds())
		ratios = append(ratios, float64(o)/float64(t))
		opRates = append(opRates, float64(len(l))/o.Seconds())
		lat = append(lat, l...)
	}
	mem, memNote := oursPeak(w, e.rep)
	n := len(rates)
	e.rep.set("throughput_mpix_s", median(rates), fmt.Sprintf("median of %d passes, %s", n, quartiles(rates)))
	e.rep.set("stdlib_ratio", median(ratios), fmt.Sprintf("median of %d paired passes (ours/image-jpeg), %s", n, quartiles(ratios)))
	e.rep.set("rate_max_rps", median(opRates), fmt.Sprintf("closed loop: public calls per second, median of %d passes", n))
	what := "calls"
	if len(single) > 0 {
		lat, what = single, "single-item calls, one at a time"
	}
	e.rep.set("latency_p50_ms", median(lat), fmt.Sprintf("median of %d %s", len(lat), what))
	p99, note := tailP99(lat)
	e.rep.set("latency_p99_ms", p99, note+", "+what)
	e.rep.set("compression_ratio", w.compression(), "deterministic")
	e.rep.set("mem_peak_mb", mem, memNote)
	fmt.Println("outputs_sha256:", w.outputDigest())
}

// oursPeak measures mem_peak_mb for an in-process workload: the VmHWM
// over a phase that runs only our path, memPasses passes over every
// batch, starting from a collected heap, so the image/jpeg twin's
// garbage stays out of it. Several passes let the peak meet the
// collector's worst timing on every run. The benchmark's inputs and
// reference outputs stay resident and count.
func oursPeak(w inproc, rep *report) (float64, string) {
	note := fmt.Sprintf("VmHWM of the benchmark process over %d passes of our path per batch, no twin, from a collected heap", memPasses)
	if err := quiesce(); err != nil {
		fmt.Println("mem_peak_mb: VmHWM reset failed, so the peak covers the whole process:", err)
		note = "VmHWM of the whole benchmark process (reset failed)"
	}
	for k := 0; k < memPasses; k++ {
		for b := 0; b < w.batches(); b++ {
			w.ours(b)
			w.verify(b, rep)
		}
	}
	return peakMB("self"), note
}

const memPasses = 3

// latencyShare is the part of a run a batch workload spends on its
// single-item latency phase.
const latencyShare = 0.5

// tracedLoop is the separate traced run: every iteration runs batch b
// untraced and traced (alternating which goes first) and then replays
// the lower layers on b's items; the per-layer metrics come from the
// spans, and the paired passes give the tracing overhead.
func tracedLoop(e *env, w inproc, workers int) error {
	warm(w, e.rep)
	quiesce()
	tr := newTracer()
	c := &counts{seen: map[int]bool{}}
	var overhead []float64
	var plainMpix float64
	var rt runtimeSample
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < e.dur; p++ {
		b := p % w.batches()
		var plain, traced time.Duration
		runPlain := func() {
			runtime.GC()
			r0 := readRuntime()
			plain, _ = w.ours(b)
			r1 := readRuntime()
			w.verify(b, e.rep)
			plainMpix += w.mpix(b)
			rt.allocBytes += r1.allocBytes - r0.allocBytes
			rt.gcCPU += r1.gcCPU - r0.gcCPU
			rt.totalCPU += r1.totalCPU - r0.totalCPU
		}
		runTraced := func() {
			runtime.GC()
			traced = w.traced(tr, b)
			w.verify(b, e.rep)
		}
		if p%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		overhead = append(overhead, float64(traced)/float64(plain)-1)
		w.replay(tr, b, c)
	}
	if err := validate(tr.spans, "item"); err != nil {
		e.rep.invalidate("trace: %v", err)
	}
	layerMetrics(e, tr, c, workers)
	e.rep.set("runtime.alloc_kb_per_mpix", rt.allocBytes/1024/plainMpix, fmt.Sprintf("heap allocations over %d untraced passes", len(overhead)))
	e.rep.set("runtime.gc_cpu_share", rt.gcCPU/max(rt.totalCPU, 1e-9), "GC CPU (runtime/metrics) / process CPU over the untraced passes")
	e.rep.set("trace.overhead_share", median(overhead), fmt.Sprintf("median of %d paired passes, traced/untraced - 1", len(overhead)))
	return writeTrace(e, tr)
}

func writeTrace(e *env, tr *tracer) error {
	path := filepath.Join(e.workDir, fmt.Sprintf("trace-%s-%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// layerMetrics turns spans into the per-layer metrics. Times are per
// Mpix of the items each layer's spans worked on.
func layerMetrics(e *env, tr *tracer, c *counts, workers int) {
	per := map[string]float64{}
	set := func(metric, span string) {
		if v, mp := tr.perMpix(span); mp > 0 {
			per[span] = v
			e.rep.set(metric, v, fmt.Sprintf("over %.4g Mpix", mp))
		}
	}
	set("jpegcodec.decode_ms_per_mpix", "jpegcodec.decode")
	set("jpegcodec.rgb_ms_per_mpix", "jpegcodec.rgb")
	set("jpegcodec.requantize_ms_per_mpix", "jpegcodec.requantize")
	set("jpegcodec.encode_ms_per_mpix", "jpegcodec.encode")
	set("dct.inverse_ms_per_mpix", "dct.inverse")
	set("dct.forward_ms_per_mpix", "dct.forward")
	set("qtable.dequantize_ms_per_mpix", "qtable.dequantize")
	set("imgutil.upsample_ms_per_mpix", "imgutil.upsample")
	set("imgutil.ycc_to_rgb_ms_per_mpix", "imgutil.ycc_to_rgb")
	set("imgutil.rgb_to_ycc_ms_per_mpix", "imgutil.rgb_to_ycc")
	set("imgutil.downsample_ms_per_mpix", "imgutil.downsample")
	if d, ok := per["jpegcodec.decode"]; ok {
		e.rep.set("jpegcodec.decode_residual_ms_per_mpix", d-per["qtable.dequantize"]-per["dct.inverse"],
			"decode minus the dequantize and IDCT replays on the same items")
		resid := tr.total("jpegcodec.decode") - tr.total("qtable.dequantize") - tr.total("dct.inverse")
		if c.replayedEntropy > 0 && resid > 0 {
			e.rep.set("jpegcodec.entropy_mb_s", c.replayedEntropy/1e6/resid.Seconds(), "entropy-coded bytes (Inspect) / decode residual time")
		}
	}
	if enc, ok := per["jpegcodec.encode"]; ok {
		e.rep.set("jpegcodec.encode_residual_ms_per_mpix", enc-per["imgutil.rgb_to_ycc"]-per["imgutil.downsample"]-per["dct.forward"],
			"encode minus the colour, downsample and FDCT replays on the same items")
	}
	if p := tr.durations("jpegcodec.parse"); len(p) > 0 {
		e.rep.set("jpegcodec.parse_us_per_item", 1000*sum(p)/float64(len(p)), fmt.Sprintf("mean of %d Inspect replays", len(p)))
	}
	if bs := tr.durations("pipeline.batch"); len(bs) > 0 {
		e.rep.set("pipeline.batch_ms", median(bs), fmt.Sprintf("median of %d traced batches", len(bs)))
		busy := ms(tr.childTotal("pipeline.batch", "item")) / (sum(bs) * float64(workers))
		e.rep.set("pipeline.worker_busy_share", busy, fmt.Sprintf("item spans / (batch wall x %d workers)", workers))
	}
	e.rep.set("jpegcodec.blocks", c.blocks, "distinct items")
	e.rep.set("jpegcodec.scans", c.scans, "distinct items")
	e.rep.set("jpegcodec.restart_segments", c.restarts, "distinct items")
	e.rep.set("jpegcodec.entropy_bytes", c.entropy, "distinct items")
	e.rep.set("jpegcodec.out_bytes", c.out, "distinct items")
}

// inspectCounts adds a stream's structure to c: scans, entropy bytes and
// restart segments (a scan with a restart interval has one segment per
// interval of its MCUs, rounded up).
func inspectCounts(c *counts, data []byte) (*jpegcodec.StreamInfo, error) {
	info, err := jpegcodec.Inspect(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	c.scans += float64(len(info.Scans))
	for _, s := range info.Scans {
		c.entropy += float64(s.EntropyBytes)
		if s.RestartInterval > 0 && info.Frame != nil {
			c.restarts += float64((scanUnits(info.Frame, s) + s.RestartInterval - 1) / s.RestartInterval)
		}
	}
	return info, nil
}

// scanUnits is the number of MCUs a scan codes: whole-frame MCUs when it
// interleaves components, the component's own blocks otherwise.
func scanUnits(f *jpegcodec.FrameInfo, s jpegcodec.ScanInfo) int {
	maxH, maxV := 1, 1
	for _, c := range f.Components {
		maxH, maxV = max(maxH, c.H), max(maxV, c.V)
	}
	if len(s.Components) > 1 {
		return ceilDiv(f.Width, 8*maxH) * ceilDiv(f.Height, 8*maxV)
	}
	for _, c := range f.Components {
		if c.ID == s.Components[0].ID {
			return ceilDiv(ceilDiv(f.Width*c.H, maxH), 8) * ceilDiv(ceilDiv(f.Height*c.V, maxV), 8)
		}
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// refs holds the first verified output of every item; later passes must
// reproduce it byte for byte.
type refs map[[2]int][]byte

// check verifies out for key: the first output runs the full check and
// becomes the reference, later ones must equal it.
func (r refs) check(key [2]int, out []byte, full func() error) error {
	if ref, ok := r[key]; ok {
		if !bytes.Equal(ref, out) {
			return fmt.Errorf("item %v: output differs from the first verified output", key)
		}
		return nil
	}
	if err := full(); err != nil {
		return fmt.Errorf("item %v: %w", key, err)
	}
	r[key] = append([]byte(nil), out...)
	return nil
}

// digest hashes the references in item order: a byte-identity tripwire
// over everything the workload emitted.
func (r refs) digest() string {
	keys := make([][2]int, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
	})
	d := newDigest()
	for _, k := range keys {
		d.add(r[k], false)
	}
	all, _ := d.sums()
	return all
}

// parallel runs fn(i) for i in [0, n) on at most workers goroutines,
// each claiming the next index, and returns the wall time.
func parallel(workers, n int, fn func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// itemErrors maps a batch call's error to per-item errors; an error that
// is not a BatchError fails every item.
func itemErrors(err error, n int) map[int]error {
	out := map[int]error{}
	if err == nil {
		return out
	}
	if be, ok := err.(*deepnjpeg.BatchError); ok {
		for _, it := range be.Items {
			out[it.Index] = it.Err
		}
		return out
	}
	for i := 0; i < n; i++ {
		out[i] = err
	}
	return out
}
