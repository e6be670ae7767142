package main

import (
	"bytes"
	"encoding/json"
	"image"
	"image/jpeg"
	"os"
	"strings"
	"testing"
	"time"

	deepnjpeg "repro"
	"repro/internal/imgutil"
)

// The tests run from perfbench/, one level below the repository root.
const testRoot = ".."

func testCodec(t *testing.T) *deepnjpeg.Codec {
	t.Helper()
	imgs, labels, err := calibrationSet(1, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := deepnjpeg.Calibrate(imgs, labels, deepnjpeg.CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func archiveDigest(t *testing.T, seed int64) (string, string) {
	t.Helper()
	batches, err := archiveInputs(testRoot, seed, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for _, b := range batches {
		for _, it := range b {
			d.add(it.Data, it.Origin == "repo")
		}
	}
	return d.sums()
}

func serveDigestOf(t *testing.T, seed int64) string {
	t.Helper()
	in, err := serveBodies(seed)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for _, r := range serveRoutes {
		for _, b := range in.byRoute[r] {
			d.add(b.data, false)
		}
	}
	all, _ := d.sums()
	return all
}

func TestSameSeedSameInputs(t *testing.T) {
	a1, r1 := archiveDigest(t, 7)
	a2, r2 := archiveDigest(t, 7)
	if a1 != a2 || r1 != r2 {
		t.Fatalf("seed 7 gave two input sets: %s/%s vs %s/%s", a1, r1, a2, r2)
	}
	if a3, _ := archiveDigest(t, 8); a3 == a1 {
		t.Fatal("seeds 7 and 8 gave the same inputs")
	}
	if serveDigestOf(t, 3) != serveDigestOf(t, 3) {
		t.Fatal("serve bodies differ for one seed")
	}
	in, _ := serveBodies(3)
	if p1, p2 := plan(in, rngFor(3, 9), 40, 20), plan(in, rngFor(3, 9), 40, 20); len(p1) != len(p2) {
		t.Fatal("plans differ in length")
	} else {
		for i := range p1 {
			if p1[i].due != p2[i].due || p1[i].b != p2[i].b || p1[i].tenant != p2[i].tenant {
				t.Fatalf("request %d differs between two plans of one seed", i)
			}
		}
	}
	codec := testCodec(t)
	trainDigest := func() string {
		imgs, err := trainImages(5, 32, 8)
		if err != nil {
			t.Fatal(err)
		}
		w, err := newTrain(codec, imgs, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for _, b := range w.streams {
			for _, s := range b {
				d.add(s, true)
			}
		}
		_, repo := d.sums()
		return repo
	}
	if trainDigest() != trainDigest() {
		t.Fatal("decode-train streams differ for one seed")
	}
}

// A corrupted output must be counted against error_rate on every path
// the workloads check: JPEG outputs, decoded pixels and served bodies.
func TestCorruptedOutputCounted(t *testing.T) {
	codec := testCodec(t)
	img := synthRGB(64, 48, rngFor(1, 99))
	good, err := codec.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad = bad[:len(bad)/2] // truncated entropy data

	rep := newReport()
	r := refs{}
	rep.check(r.check([2]int{0, 0}, good, func() error { return checkJPEG(good, 64, 48) }))
	rep.check(r.check([2]int{0, 1}, bad, func() error { return checkJPEG(bad, 64, 48) }))
	// A later pass whose bytes differ from the verified reference fails
	// even when the bytes would decode.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x01
	rep.check(r.check([2]int{0, 0}, flipped, func() error { return nil }))
	if rep.attempted != 3 || rep.failed != 2 || rep.errorRate() != 2.0/3 {
		t.Fatalf("attempted %d failed %d error_rate %g, want 3, 2, 2/3", rep.attempted, rep.failed, rep.errorRate())
	}

	dec, err := deepnjpeg.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPixels(good, dec); err != nil {
		t.Fatalf("a correct decode fails the pixel check: %v", err)
	}
	shifted := &imgutil.RGB{W: dec.W, H: dec.H, Pix: append([]byte(nil), dec.Pix...)}
	for i := range shifted.Pix[:300] {
		shifted.Pix[i] ^= 0x10
	}
	if checkPixels(good, shifted) == nil {
		t.Fatal("pixels 16 levels off pass the check")
	}

	b := &body{route: "decode", srcJPEG: [][]byte{good}, w: []int{64}, h: []int{48}}
	var ppm bytes.Buffer
	ppm.WriteString("P6\n64 48\n255\n")
	ppm.Write(dec.Pix)
	o := &outcome{status: 200, ctype: "image/x-portable-pixmap", hdrW: "64", hdrH: "48", body: ppm.Bytes()}
	if _, err := checkResponse(b, o); err != nil {
		t.Fatalf("a correct decode response fails: %v", err)
	}
	o.hdrH = "47"
	if _, err := checkResponse(b, o); err == nil {
		t.Fatal("a wrong X-Image-Height passes")
	}
	o.hdrH, o.req.b = "48", b
	o.body[len(o.body)-1] ^= 0x40 // one sample 64 levels off
	rep = newReport()
	newVerifier().checkAll([]outcome{*o, {req: request{b: b}, status: 500}}, rep)
	if rep.attempted != 2 || rep.failed != 2 {
		t.Fatalf("attempted %d failed %d, want a corrupted body and a 500 both counted", rep.attempted, rep.failed)
	}
}

// The traced composition of a workload must give well-formed spans: no
// child outlasts its parent, and the stage self times of every item add
// up to the item span.
func TestTraceSpansNestAndSum(t *testing.T) {
	codec := testCodec(t)
	batches, err := archiveInputs(testRoot, 3, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	w := newArchive(codec, batches[:1])
	tr := newTracer()
	w.traced(tr, 0)
	rep := newReport()
	w.verify(0, rep)
	if rep.failed != 0 {
		t.Fatalf("traced requantize outputs fail their checks: %v", rep.problems)
	}
	w.replay(tr, 0, &counts{seen: map[int]bool{}})
	if err := validate(tr.spans, "item"); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name != "item" {
			continue
		}
		sum := self[s.ID]
		for _, k := range tr.spans {
			if k.Parent == s.ID {
				sum += self[k.ID]
			}
		}
		if sum != s.dur() {
			t.Fatalf("item %d: self times sum to %v, span is %v", s.Item, sum, s.dur())
		}
	}

	// validate itself must catch the two faults.
	ms := int64(time.Millisecond)
	outlast := []span{
		{ID: 1, Name: "item", Start: 0, End: 10 * ms, Blocking: true},
		{ID: 2, Parent: 1, Name: "jpegcodec.decode", Start: 2 * ms, End: 12 * ms, Blocking: true},
	}
	if validate(outlast, "item") == nil {
		t.Fatal("a child outlasting its parent passes")
	}
	overlap := []span{
		{ID: 1, Name: "item", Start: 0, End: 10 * ms, Blocking: true},
		{ID: 2, Parent: 1, Name: "jpegcodec.decode", Start: 1 * ms, End: 6 * ms, Blocking: true},
		{ID: 3, Parent: 1, Name: "jpegcodec.requantize", Start: 4 * ms, End: 9 * ms, Blocking: true},
	}
	if validate(overlap, "item") == nil {
		t.Fatal("overlapping stages pass as a sum")
	}
}

// The metric names and units the command prints are the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Fatalf("%s %d: code %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %s; the command implements %d workloads", strings.Join(names, ", "), len(workloads))
	}
}

// stdlibRGB converts image/jpeg's planes itself; it must give what
// image/jpeg's own colour model gives, for colour and grey streams.
func TestStdlibRGBMatchesImageJPEG(t *testing.T) {
	src := synthRGB(37, 21, rngFor(1, 99))
	colour, err := stdlibJPEG(src, 80)
	if err != nil {
		t.Fatal(err)
	}
	grey := image.NewGray(image.Rect(0, 0, 37, 21))
	for i := range grey.Pix {
		grey.Pix[i] = src.Pix[3*i]
	}
	var g bytes.Buffer
	if err := jpeg.Encode(&g, grey, &jpeg.Options{Quality: 80}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"colour": colour, "grey": g.Bytes()} {
		got, err := stdlibRGB(data)
		if err != nil {
			t.Fatal(name, err)
		}
		img, _ := jpeg.Decode(bytes.NewReader(data))
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				r, gr, b, _ := img.At(x, y).RGBA()
				o := 3 * (y*got.W + x)
				if got.Pix[o] != uint8(r>>8) || got.Pix[o+1] != uint8(gr>>8) || got.Pix[o+2] != uint8(b>>8) {
					t.Fatalf("%s: pixel (%d,%d) = %v, image/jpeg %d,%d,%d", name, x, y, got.Pix[o:o+3], r>>8, gr>>8, b>>8)
				}
			}
		}
	}
}

// rate_max_rps counts a rung only when every lower rung also meets the
// limits.
func TestRateMaxNeedsEveryLowerRung(t *testing.T) {
	for _, c := range []struct {
		meets []bool
		want  float64
	}{
		{[]bool{true, true, true}, serveRates[2]},
		{[]bool{true, true, false}, serveRates[1]},
		{[]bool{true, false, true}, serveRates[0]},
		{[]bool{false, true, true}, 0},
	} {
		var phases []*phase
		for i, m := range c.meets {
			phases = append(phases, &phase{rate: serveRates[i], meets: m})
		}
		if got := rateMax(phases); got != c.want {
			t.Errorf("meets %v: rate_max_rps %g, want %g", c.meets, got, c.want)
		}
	}
}
