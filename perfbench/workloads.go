package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/jpeg"
	"runtime"
	"sync"
	"time"

	deepnjpeg "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/qtable"
)

// stdlibQuality is the quality of every image/jpeg encode in the twins.
const stdlibQuality = 75

// --- requantize-archive ---------------------------------------------------

// archive re-targets a mixed archive onto the calibrated tables with
// Codec.RequantizeBatch, batches of 16, OptimizeHuffman on.
type archive struct {
	codec   *deepnjpeg.Codec
	batch   [][]jpegItem
	streams [][][]byte
	outs    [][][]byte
	errs    []map[int]error
	decs    []*jpegcodec.Decoded // per-worker working sets of the traced pass
	replayD jpegcodec.Decoded
	plane   []float64
	refs    refs
}

var archiveOpts = deepnjpeg.RequantizeOptions{OptimizeHuffman: true}

func runArchive(e *env) error {
	codec, _, _, err := calibrateSetup(e)
	if err != nil {
		return err
	}
	batches, err := archiveInputs(e.root, e.seed, 1)
	if err != nil {
		return err
	}
	w := newArchive(codec, batches)
	d := newDigest()
	for _, b := range batches {
		for _, it := range b {
			d.add(it.Data, it.Origin == "repo")
		}
	}
	e.inputDigests(d.sums())
	if e.trace {
		return tracedLoop(e, w, pipeline.Workers(0, len(batches[0])))
	}
	closedLoop(e, w)
	return nil
}

func newArchive(codec *deepnjpeg.Codec, batches [][]jpegItem) *archive {
	w := &archive{codec: codec, batch: batches, refs: refs{}}
	for _, b := range batches {
		var s [][]byte
		for _, it := range b {
			s = append(s, it.Data)
		}
		w.streams = append(w.streams, s)
	}
	w.outs = make([][][]byte, len(batches))
	w.errs = make([]map[int]error, len(batches))
	return w
}

func (w *archive) batches() int { return len(w.batch) }

func (w *archive) mpix(b int) float64 {
	var m float64
	for _, it := range w.batch[b] {
		m += it.mpix()
	}
	return m
}

func (w *archive) ours(b int) (time.Duration, []float64) {
	t0 := time.Now()
	out, err := w.codec.RequantizeBatch(context.Background(), w.streams[b], deepnjpeg.BatchOptions{}, archiveOpts)
	d := time.Since(t0)
	w.outs[b], w.errs[b] = out, itemErrors(err, len(w.streams[b]))
	return d, []float64{ms(d)}
}

// twin is the pixel round trip requantize avoids: image/jpeg decode then
// encode, on GOMAXPROCS goroutines like the facade's default pool.
func (w *archive) twin(b int) time.Duration {
	s := w.streams[b]
	return parallel(runtime.GOMAXPROCS(0), len(s), func(i int) {
		img, err := jpeg.Decode(bytes.NewReader(s[i]))
		if err == nil {
			var out bytes.Buffer
			_ = jpeg.Encode(&out, img, &jpeg.Options{Quality: stdlibQuality})
		}
	})
}

func (w *archive) verify(b int, rep *report) {
	for i, it := range w.batch[b] {
		if err := w.errs[b][i]; err != nil {
			rep.check(fmt.Errorf("item %d/%d: %w", b, i, err))
			continue
		}
		out := w.outs[b][i]
		rep.check(w.refs.check([2]int{b, i}, out, func() error { return checkJPEG(out, it.W, it.H) }))
	}
}

// traced composes RequantizeBatch as the facade does: pipeline.MapWorker
// over the default pool, one Decoded per worker, DecodeInto then
// Requantize per item.
func (w *archive) traced(tr *tracer, b int) time.Duration {
	s := w.streams[b]
	nw := pipeline.Workers(0, len(s))
	for len(w.decs) < nw {
		w.decs = append(w.decs, new(jpegcodec.Decoded))
	}
	luma, chroma := w.codec.LumaTable(), w.codec.ChromaTable()
	batch := tr.start("pipeline.batch", 0, -1, true)
	out, err := pipeline.MapWorker(context.Background(), len(s), 0, func(_ context.Context, wk, i int) ([]byte, error) {
		item := tr.start("item", batch.id(), i, true).covering(w.batch[b][i].mpix())
		defer item.end()
		var derr error
		tr.timed("jpegcodec.decode", item.id(), i, true, func() {
			derr = jpegcodec.DecodeInto(bytes.NewReader(s[i]), w.decs[wk], &jpegcodec.DecodeOptions{})
		})
		if derr != nil {
			return nil, derr
		}
		var buf bytes.Buffer
		var rerr error
		tr.timed("jpegcodec.requantize", item.id(), i, true, func() {
			rerr = jpegcodec.Requantize(&buf, w.decs[wk], luma, chroma, &jpegcodec.Options{OptimizeHuffman: archiveOpts.OptimizeHuffman})
		})
		return buf.Bytes(), rerr
	})
	d := batch.end()
	w.outs[b], w.errs[b] = out, itemErrors(err, len(s))
	return d
}

func (w *archive) replay(tr *tracer, b int, c *counts) {
	first := !c.seen[b]
	c.seen[b] = true
	for i, it := range w.batch[b] {
		if first && w.errs[b][i] == nil {
			c.out += float64(len(w.outs[b][i]))
		}
		w.plane = replayDecode(tr, &w.replayD, it.Data, i, c, first, w.plane, false)
	}
}

func (w *archive) compression() float64 {
	var in, out float64
	for b := range w.batch {
		for i, it := range w.batch[b] {
			in += float64(len(it.Data))
			out += float64(len(w.refs[[2]int{b, i}]))
		}
	}
	return in / out
}

func (w *archive) outputDigest() string { return w.refs.digest() }

func (w *archive) items(b int) int { return len(w.batch[b]) }

// single is Codec.Requantize on one stream, the path RequantizeBatch runs
// per item: its output must be the batch's.
func (w *archive) single(b, i int, rep *report) time.Duration {
	t0 := time.Now()
	out, err := w.codec.Requantize(w.streams[b][i], archiveOpts)
	d := time.Since(t0)
	if err == nil {
		err = w.refs.check([2]int{b, i}, out, func() error { return checkJPEG(out, w.batch[b][i].W, w.batch[b][i].H) })
	}
	rep.check(err)
	return d
}

// replayDecode decodes data untimed, then replays the layers inside
// DecodeInto on its result — Inspect (header walk), dequantize and IDCT
// with the default engine — and, with rgb, the colour stage's upsample
// and YCbCr→RGB. Counts are added when first is set; the entropy bytes
// of every replay are added so entropy throughput covers the traced
// passes. It returns the float scratch for reuse.
func replayDecode(tr *tracer, dec *jpegcodec.Decoded, data []byte, item int, c *counts, first bool, plane []float64, rgb bool) []float64 {
	if err := jpegcodec.DecodeInto(bytes.NewReader(data), dec, nil); err != nil {
		return plane
	}
	root := tr.start("replay", 0, item, false).covering(float64(dec.W*dec.H) / 1e6)
	defer root.end()
	var info *jpegcodec.StreamInfo
	var sc counts
	tr.timed("jpegcodec.parse", root.id(), item, false, func() { info, _ = inspectCounts(&sc, data) })
	c.replayedEntropy += sc.entropy
	if first {
		c.scans += sc.scans
		c.entropy += sc.entropy
		c.restarts += sc.restarts
	}
	if info == nil || info.Frame == nil {
		return plane
	}
	// Dequantize every component into one plane, then one batched IDCT
	// over all of it, as the decoder's reconstruction does.
	var xf dct.Transform // the default engine, as DecodeInto runs it
	type comp struct {
		inv    *qtable.InvScaled
		blocks [][64]int32
		off    int
	}
	var comps []comp
	n := 0
	for ci, fc := range info.Frame.Components {
		blocks, _, _ := dec.Coefficients(ci)
		comps = append(comps, comp{dec.QuantTables[fc.Tq].InvScaled(xf), blocks, n})
		n += 64 * len(blocks)
	}
	if first {
		c.blocks += float64(n / 64)
	}
	if cap(plane) < n {
		plane = make([]float64, n)
	}
	p := plane[:n]
	tr.timed("qtable.dequantize", root.id(), item, false, func() {
		for _, c := range comps {
			c.inv.DequantizeBlocks(p[c.off:], c.blocks)
		}
	})
	tr.timed("dct.inverse", root.id(), item, false, func() { xf.InverseScaledBatch(p) })
	if rgb && dec.Components == 3 {
		replayColour(tr, root.id(), item, dec.RGB(), dec.Sampling)
	}
	return plane
}

// replayColour replays RGBInto's stages on planes of the item's shape:
// upsampling both chroma planes from the stream's layout, then YCbCr→RGB.
func replayColour(tr *tracer, parent int64, item int, rgb *imgutil.RGB, sub jpegcodec.Subsampling) {
	var p imgutil.Planes
	p.FromRGB(rgb)
	if rx, ry := subFactors(sub); rx > 1 || ry > 1 {
		cb, cw, ch := imgutil.DownsampleInto(nil, p.Cb, p.W, p.H, rx, ry)
		cr, _, _ := imgutil.DownsampleInto(nil, p.Cr, p.W, p.H, rx, ry)
		tr.timed("imgutil.upsample", parent, item, false, func() {
			p.Cb = imgutil.UpsampleInto(p.Cb, cb, cw, ch, p.W, p.H, 1, rx, 1, ry)
			p.Cr = imgutil.UpsampleInto(p.Cr, cr, cw, ch, p.W, p.H, 1, rx, 1, ry)
		})
	}
	dst := imgutil.NewRGB(p.W, p.H)
	tr.timed("imgutil.ycc_to_rgb", parent, item, false, func() { p.ToRGBInto(dst) })
}

// subFactors is the chroma reduction of a layout per axis.
func subFactors(s jpegcodec.Subsampling) (rx, ry int) {
	switch s {
	case jpegcodec.Sub420:
		return 2, 2
	case jpegcodec.Sub422:
		return 2, 1
	case jpegcodec.Sub440:
		return 1, 2
	case jpegcodec.Sub411:
		return 4, 1
	}
	return 1, 1
}

// --- decode-train ---------------------------------------------------------

// train is a DNN data loader: DecodeBatchInto over batches of 32
// DeepN-JPEG 224² streams, into a reused dst.
type train struct {
	streams [][][]byte
	dst     [][]*imgutil.RGB
	errs    []map[int]error
	raw     float64
	decs    []*jpegcodec.Decoded
	replayD jpegcodec.Decoded
	plane   []float64
	refs    refs
}

const (
	trainSize    = 224
	trainBatch   = 32
	trainBatches = 4
)

func runTrain(e *env) error {
	codec, _, _, err := calibrateSetup(e)
	if err != nil {
		return err
	}
	imgs, err := trainImages(e.seed, trainSize, trainBatch*trainBatches)
	if err != nil {
		return err
	}
	w, err := newTrain(codec, imgs, trainBatch)
	if err != nil {
		return err
	}
	d := newDigest()
	for _, b := range w.streams {
		for _, s := range b {
			d.add(s, true)
		}
	}
	e.inputDigests(d.sums())
	if e.trace {
		return tracedLoop(e, w, pipeline.Workers(0, trainBatch))
	}
	closedLoop(e, w)
	return nil
}

// newTrain encodes the images with the calibrated codec (Codec.Encode:
// DeepN tables, 4:2:0, no restart interval) into batches.
func newTrain(codec *deepnjpeg.Codec, imgs []*imgutil.RGB, size int) (*train, error) {
	w := &train{refs: refs{}}
	for i, im := range imgs {
		data, err := codec.Encode(im)
		if err != nil {
			return nil, fmt.Errorf("encode training image %d: %w", i, err)
		}
		if i%size == 0 {
			w.streams = append(w.streams, nil)
		}
		b := len(w.streams) - 1
		w.streams[b] = append(w.streams[b], data)
		w.raw += float64(len(im.Pix))
	}
	for _, s := range w.streams {
		w.dst = append(w.dst, make([]*imgutil.RGB, len(s)))
	}
	w.errs = make([]map[int]error, len(w.streams))
	return w, nil
}

func (w *train) batches() int { return len(w.streams) }

func (w *train) mpix(b int) float64 { return float64(len(w.streams[b])*trainSize*trainSize) / 1e6 }

func (w *train) ours(b int) (time.Duration, []float64) {
	t0 := time.Now()
	_, err := deepnjpeg.DecodeBatchInto(context.Background(), w.streams[b], w.dst[b], deepnjpeg.BatchOptions{}, deepnjpeg.DecodeOptions{})
	d := time.Since(t0)
	w.errs[b] = itemErrors(err, len(w.streams[b]))
	return d, []float64{ms(d)}
}

func (w *train) twin(b int) time.Duration {
	s := w.streams[b]
	return parallel(runtime.GOMAXPROCS(0), len(s), func(i int) { _, _ = jpeg.Decode(bytes.NewReader(s[i])) })
}

func (w *train) verify(b int, rep *report) {
	for i, src := range w.streams[b] {
		if err := w.errs[b][i]; err != nil {
			rep.check(fmt.Errorf("item %d/%d: %w", b, i, err))
			continue
		}
		out := w.dst[b][i]
		if out == nil {
			rep.check(fmt.Errorf("item %d/%d: no output", b, i))
			continue
		}
		rep.check(w.refs.check([2]int{b, i}, out.Pix, func() error { return checkPixels(src, out) }))
	}
}

// traced composes DecodeBatchInto as the facade does: pipeline.RunWorker
// over the default pool, one Decoded per worker, DecodeInto then RGBInto
// into the reused dst entry.
func (w *train) traced(tr *tracer, b int) time.Duration {
	s, dst := w.streams[b], w.dst[b]
	nw := pipeline.Workers(0, len(s))
	for len(w.decs) < nw {
		w.decs = append(w.decs, new(jpegcodec.Decoded))
	}
	batch := tr.start("pipeline.batch", 0, -1, true)
	err := pipeline.RunWorker(context.Background(), len(s), 0, func(_ context.Context, wk, i int) error {
		item := tr.start("item", batch.id(), i, true).covering(float64(trainSize*trainSize) / 1e6)
		defer item.end()
		var derr error
		tr.timed("jpegcodec.decode", item.id(), i, true, func() {
			derr = jpegcodec.DecodeInto(bytes.NewReader(s[i]), w.decs[wk], &jpegcodec.DecodeOptions{})
		})
		if derr != nil {
			return derr
		}
		tr.timed("jpegcodec.rgb", item.id(), i, true, func() { dst[i] = w.decs[wk].RGBInto(dst[i]) })
		return nil
	})
	d := batch.end()
	w.errs[b] = itemErrors(err, len(s))
	return d
}

func (w *train) replay(tr *tracer, b int, c *counts) {
	first := !c.seen[b]
	c.seen[b] = true
	for i, s := range w.streams[b] {
		if first {
			c.out += float64(len(w.dst[b][i].Pix))
		}
		w.plane = replayDecode(tr, &w.replayD, s, i, c, first, w.plane, true)
	}
}

func (w *train) compression() float64 {
	var n float64
	for _, b := range w.streams {
		for _, s := range b {
			n += float64(len(s))
		}
	}
	return w.raw / n
}

func (w *train) outputDigest() string { return w.refs.digest() }

// items is 0: a DecodeBatchInto call is the latency sample. Single
// 224² decodes take about 4 ms, and on a shared host a few ms of stall
// doubles them, so their tail swung by half between runs; a 32-item
// call's tail did not.
func (w *train) items(int) int { return 0 }

func (w *train) single(int, int, *report) time.Duration { return 0 }

// --- encode-edge ----------------------------------------------------------

// edge is two sensor streams encoding frames with Codec.EncodeWith: each
// stream encodes 640×480 and 1280×720 frames, half of them with a
// restart interval of one MCU row.
type edge struct {
	codec  *deepnjpeg.Codec
	scheme core.Scheme // the calibrated scheme, for the traced composition
	sets   [][edgeStreams][]edgeFrame
	outs   [][edgeStreams][][]byte
	errs   [][edgeStreams][]error
	refs   refs
	raw    float64
	plane  []float64
}

type edgeFrame struct {
	img  *imgutil.RGB
	std  *image.RGBA
	opts deepnjpeg.EncodeOptions
}

const (
	edgeStreams = 2
	edgeSets    = 2
)

// edgeShapes is one stream's frames: two in three are 640×480, so the
// median call is a 480p frame and the tail a 720p one; half of each size
// carries a restart interval of one MCU row.
var edgeShapes = []struct{ w, h, ri int }{
	{640, 480, 0}, {640, 480, 640 / 16}, {1280, 720, 0},
	{640, 480, 0}, {640, 480, 640 / 16}, {1280, 720, 1280 / 16},
}

func runEdge(e *env) error {
	codec, imgs, labels, err := calibrateSetup(e)
	if err != nil {
		return err
	}
	w := &edge{codec: codec, refs: refs{}}
	d := newDigest()
	for s := 0; s < edgeSets; s++ {
		var set [edgeStreams][]edgeFrame
		for st := range set {
			for k, sh := range edgeShapes {
				im := synthRGB(sh.w, sh.h, rngFor(e.seed, 4, int64(s), int64(st), int64(k)))
				set[st] = append(set[st], edgeFrame{im, toRGBA(im), deepnjpeg.EncodeOptions{RestartInterval: sh.ri}})
				d.add(im.Pix, false)
				w.raw += float64(len(im.Pix))
			}
		}
		w.sets = append(w.sets, set)
	}
	w.outs = make([][edgeStreams][][]byte, edgeSets)
	w.errs = make([][edgeStreams][]error, edgeSets)
	e.inputDigests(d.sums())
	if e.trace {
		// The facade hides its framework; calibrating the core on the same
		// set with the same (zero) options yields the identical scheme.
		fw, err := core.Calibrate(&dataset.Dataset{Images: imgs, Labels: labels, Size: imgs[0].W}, core.CalibrateOptions{})
		if err != nil {
			return err
		}
		w.scheme = fw.Scheme()
		return tracedLoop(e, w, edgeStreams)
	}
	closedLoop(e, w)
	return nil
}

func (w *edge) batches() int { return len(w.sets) }

func (w *edge) mpix(b int) float64 {
	var m float64
	for _, st := range w.sets[b] {
		for _, f := range st {
			m += float64(f.img.W*f.img.H) / 1e6
		}
	}
	return m
}

// streams runs fn for every frame of set b, one goroutine per sensor
// stream, frames of a stream in order; it returns the wall time.
func (w *edge) streams(b int, fn func(st, k int, f edgeFrame)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for st := range w.sets[b] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, f := range w.sets[b][st] {
				fn(st, k, f)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func (w *edge) ours(b int) (time.Duration, []float64) {
	var lat [edgeStreams][]float64
	for st := range w.outs[b] {
		w.outs[b][st] = make([][]byte, len(w.sets[b][st]))
		w.errs[b][st] = make([]error, len(w.sets[b][st]))
	}
	d := w.streams(b, func(st, k int, f edgeFrame) {
		t0 := time.Now()
		w.outs[b][st][k], w.errs[b][st][k] = w.codec.EncodeWith(f.img, f.opts)
		lat[st] = append(lat[st], ms(time.Since(t0)))
	})
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return d, all
}

func (w *edge) twin(b int) time.Duration {
	return w.streams(b, func(_, _ int, f edgeFrame) {
		var out bytes.Buffer
		_ = jpeg.Encode(&out, f.std, &jpeg.Options{Quality: stdlibQuality})
	})
}

func (w *edge) verify(b int, rep *report) {
	for st, frames := range w.sets[b] {
		for k, f := range frames {
			if err := w.errs[b][st][k]; err != nil {
				rep.check(fmt.Errorf("frame %d/%d/%d: %w", b, st, k, err))
				continue
			}
			out := w.outs[b][st][k]
			rep.check(w.refs.check([2]int{b, st*len(frames) + k}, out, func() error { return checkJPEG(out, f.img.W, f.img.H) }))
		}
	}
}

// traced composes EncodeWith as the facade does: the calibrated scheme's
// options with the frame's restart interval, into jpegcodec.EncodeRGB.
func (w *edge) traced(tr *tracer, b int) time.Duration {
	for st := range w.outs[b] {
		w.outs[b][st] = make([][]byte, len(w.sets[b][st]))
		w.errs[b][st] = make([]error, len(w.sets[b][st]))
	}
	return w.streams(b, func(st, k int, f edgeFrame) {
		id := st*len(w.sets[b][st]) + k
		item := tr.start("item", 0, id, true).covering(float64(f.img.W*f.img.H) / 1e6)
		defer item.end()
		opts := w.scheme.Opts
		opts.RestartInterval = f.opts.RestartInterval
		var buf bytes.Buffer
		tr.timed("jpegcodec.encode", item.id(), id, true, func() {
			w.errs[b][st][k] = jpegcodec.EncodeRGB(&buf, f.img, &opts)
		})
		w.outs[b][st][k] = buf.Bytes()
	})
}

// replay re-runs the encoder's stages on each frame.
func (w *edge) replay(tr *tracer, b int, c *counts) {
	first := !c.seen[b]
	c.seen[b] = true
	for st, frames := range w.sets[b] {
		for k, f := range frames {
			id := st*len(frames) + k
			w.plane = replayEncode(tr, id, f.img, w.plane)
			if first && w.errs[b][st][k] == nil {
				out := w.outs[b][st][k]
				c.blocks += float64(encodeBlocks(f.img))
				c.out += float64(len(out))
				var sc counts
				if _, err := inspectCounts(&sc, out); err == nil {
					c.scans += sc.scans
					c.entropy += sc.entropy
					c.restarts += sc.restarts
				}
			}
		}
	}
}

// encodeBlocks is the MCU-padded block count of a 4:2:0 encode: four
// luma and two chroma blocks per 16×16 MCU.
func encodeBlocks(im *imgutil.RGB) int { return 6 * ceilDiv(im.W, 16) * ceilDiv(im.H, 16) }

// replayEncode replays the encoder's stages on a frame: RGB→YCbCr, 4:2:0
// chroma downsampling, and the forward DCT over the frame's block count
// with the default engine. It returns the float scratch for reuse.
func replayEncode(tr *tracer, item int, img *imgutil.RGB, plane []float64) []float64 {
	root := tr.start("replay", 0, item, false).covering(float64(img.W*img.H) / 1e6)
	defer root.end()
	var p imgutil.Planes
	tr.timed("imgutil.rgb_to_ycc", root.id(), item, false, func() { p.FromRGB(img) })
	tr.timed("imgutil.downsample", root.id(), item, false, func() {
		imgutil.DownsampleInto(nil, p.Cb, p.W, p.H, 2, 2)
		imgutil.DownsampleInto(nil, p.Cr, p.W, p.H, 2, 2)
	})
	n := 64 * encodeBlocks(img)
	if cap(plane) < n {
		plane = make([]float64, n)
	}
	pl := plane[:n]
	for i := range pl {
		pl[i] = float64(p.Y[i%len(p.Y)]) - 128
	}
	var xf dct.Transform // the default engine, as the calibrated scheme runs it
	tr.timed("dct.forward", root.id(), item, false, func() { xf.ForwardScaledBatch(pl) })
	return plane
}

func (w *edge) compression() float64 {
	var n float64
	for _, r := range w.refs {
		n += float64(len(r))
	}
	return w.raw / n
}

func (w *edge) outputDigest() string { return w.refs.digest() }

// items is 0: EncodeWith already takes one frame per call, so the main
// loop's per-frame latencies serve.
func (w *edge) items(int) int { return 0 }

func (w *edge) single(int, int, *report) time.Duration { return 0 }
